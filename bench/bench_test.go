package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's
// metric tables to each other and to the driver's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads: file has %s, program has %s", got, want)
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(f.EndToEnd), len(f.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	compare := func(kind string, file []fileMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Errorf("%s: file has %d metrics, program has %d", kind, len(file), len(prog))
			return
		}
		for i, fm := range file {
			if want := prog[i]; fm.Name != want.Name || fm.Unit != want.Unit || fm.Better != want.Better {
				t.Errorf("%s[%d]: file has %+v, program has %+v", kind, i, fm, want)
			}
			if !nameRE.MatchString(fm.Name) || !unitRE.MatchString(fm.Unit) || seen[fm.Name] {
				t.Errorf("%s: %q (%q) is repeated or outside the name and unit alphabets", kind, fm.Name, fm.Unit)
			}
			seen[fm.Name] = true
			if bounded != (fm.Bound != nil) || (bounded && (*fm.Bound <= 0 || *fm.Bound > 0.25)) {
				t.Errorf("%s: %s: only end-to-end metrics carry a bound, in (0, 0.25]", kind, fm.Name)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds %d / paths %v", f.RunSeconds, f.Paths)
	}
}

// lastLine decodes the result line a run printed last.
func lastLine(t *testing.T, out []byte) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res jsonResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload at the -smoke size, untraced
// and traced, and requires a correct result carrying exactly the metrics
// BENCHMARK.json names for that kind of run, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var out bytes.Buffer
				if code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", traced, "-smoke"}, &out); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.Bytes())
				}
				res := lastLine(t, out.Bytes())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := f.EndToEnd
				if traced == "1" {
					want = f.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: printed %+v (present=%v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if traced == "0" && got.Value == 0 {
						t.Errorf("%s: an end-to-end metric must never read 0", m.Name)
					}
				}
			})
		}
	}
}

// TestWrongGoldenCountsAsFailure: a wrong answer is a failed operation and
// a non-zero exit, not just a crash.
func TestWrongGoldenCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload; skipped in -short mode")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for id := range soloSmokeIDs {
		data, err := os.ReadFile(filepath.Join(root, "internal", "exp", "testdata", "golden", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if id == "fig9" {
			data = append(data, "one line too many\n"...)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".golden"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	code := run([]string{"-workload", "sweep-solo", "-smoke", "-golden", dir}, &out)
	res := lastLine(t, out.Bytes())
	if code == 0 || res.Correct || res.Failed != 1 || res.Attempted != len(soloSmokeIDs) {
		t.Errorf("exit code %d, correct=%v, %d of %d failed; want a non-zero exit and exactly fig9 failed",
			code, res.Correct, res.Failed, res.Attempted)
	}
}

// TestSeedIsTheOnlyVariation: one seed gives one schedule and one estimate
// order; another seed gives another.
func TestSeedIsTheOnlyVariation(t *testing.T) {
	render := func(seed int64) string {
		sc, err := newSchedule(seed, sizeFor(1, true))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, o := range sc.ops {
			sb.WriteString(classNames[o.class] + o.spec.hash[:8] + " ")
		}
		for _, p := range newSampledUnit(seed, false).points {
			sb.WriteString(p.ds + p.app + p.policy + " ")
		}
		return sb.String()
	}
	if render(5) != render(5) {
		t.Error("the same seed gave two different inputs")
	}
	if render(5) == render(6) {
		t.Error("two seeds gave the same inputs")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if want := [3]float64{3.5, 13.5, 31}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
