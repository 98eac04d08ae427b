package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden-run harness pins the exact output of every deterministic
// experiment at 1/64 scale: the concurrent engine's "byte-identical to a
// sequential run" claim, the policy implementations, the reorderings and
// the dataset generators are all under one regression net. Refresh after
// an intentional change with
//
//	go test ./internal/exp -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenScaleDiv keeps the committed outputs tiny and the harness fast.
const goldenScaleDiv = 64

// nondeterministicIDs are the experiments excluded from golden comparison.
// Everything else must be byte-reproducible — a new experiment is golden by
// default, and opting out requires a reason here.
var nondeterministicIDs = map[string]string{
	"fig10a": "times native wall-clock executions",
}

func goldenExperiments() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if _, skip := nondeterministicIDs[e.ID]; !skip {
			out = append(out, e)
		}
	}
	return out
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".golden")
}

func TestGoldenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("golden harness skipped in -short mode")
	}
	exps := goldenExperiments()
	if len(exps) < 15 {
		t.Fatalf("only %d deterministic experiments; the harness must cover at least 15", len(exps))
	}
	s := NewSession(ScaledConfig(goldenScaleDiv))
	// Warm the union of all declared datapoints on the worker pool once;
	// the bodies then render from the cache exactly as graspsim's sweep does.
	var points []Datapoint
	for _, e := range exps {
		if e.Points != nil {
			points = append(points, e.Points()...)
		}
	}
	if err := s.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	// What the union's prefetch did; rendering must add to none of it.
	settled := func() map[string]float64 {
		ph := s.PhaseSeconds()
		return map[string]float64{
			"SimRuns": float64(s.SimRuns()), "SampledRuns": float64(s.SampledRuns()), "CorunRuns": float64(s.CorunRuns()),
			"OPT cells": float64(s.art.count(kindOPT)), "loads": float64(s.loads.Load()),
			"record s": ph["record"], "replay s": ph["replay"], "corun s": ph["corun"],
		}
	}
	before := settled()
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(s, &buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("experiment produced no output")
			}
			path := goldenPath(e.ID)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output differs from %s:\n%s\nrun `go test ./internal/exp -run Golden -update` if the change is intentional",
					path, diffSummary(want, buf.Bytes()))
			}
		})
	}
	// Points() is each experiment's only statement of what it reads: no
	// body loads a graph, records, or computes a cell of any kind the
	// union's prefetch did not.
	for name, after := range settled() {
		if after != before[name] {
			t.Errorf("rendering did work the prefetch did not: %s %v -> %v", name, before[name], after)
		}
	}
	if *updateGolden {
		// Remove goldens of experiments that no longer exist so the
		// directory never accretes stale files.
		known := make(map[string]bool)
		for _, e := range exps {
			known[e.ID+".golden"] = true
		}
		entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if !known[ent.Name()] {
				if err := os.Remove(filepath.Join("testdata", "golden", ent.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// diffSummary points at the first differing line instead of dumping two
// full tables.
func diffSummary(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// TestGoldenFilesCommitted guards the harness itself: every deterministic
// experiment must have a committed golden file even when the comparison
// run is skipped (-short), so a new experiment cannot land without one.
func TestGoldenFilesCommitted(t *testing.T) {
	for _, e := range goldenExperiments() {
		if _, err := os.Stat(goldenPath(e.ID)); err != nil {
			t.Errorf("%s: no golden output committed (run `go test ./internal/exp -run Golden -update`): %v", e.ID, err)
		}
	}
}
