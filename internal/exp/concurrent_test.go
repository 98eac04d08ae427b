package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
)

// hammerPoints is a small mixed batch: results under three policies plus
// an OPT study cell per group, with deliberate overlap between rows so the
// dedup paths are exercised.
func hammerPoints() []Datapoint {
	var pts []Datapoint
	for _, ds := range []string{"lj", "kr"} {
		for _, app := range []string{"PR", "BC"} {
			for _, pol := range []string{"RRIP", "GRASP", "LRU"} {
				pts = append(pts, Datapoint{DS: ds, Reorder: "DBG", App: app,
					Layout: apps.LayoutMerged, Policy: pol})
			}
			pts = append(pts, Datapoint{DS: ds, App: app, Trace: true, OPTScale: 1})
		}
	}
	return pts
}

// studyCell returns the OPT study cell a Trace point declares, computing
// it on first use exactly as Prefetch does.
func studyCell(s *Session, p Datapoint) (optDatapoint, error) {
	g := group(s.dataset(p.DS), "DBG", p.App, apps.LayoutMerged)
	return one(s.optCells(context.Background(), g, []cache.Config{studyLLC(s.Cfg.HCfg.LLC, p.OPTScale)}))
}

// TestSessionConcurrentDeterminism hammers one Session from many goroutines
// (each walking the same datapoints in a different order) and asserts that
// (a) every result is identical to a sequentially computed baseline, and
// (b) the singleflight layer collapsed all concurrent requests so each
// distinct simulation ran exactly once. Run under -race in CI.
func TestSessionConcurrentDeterminism(t *testing.T) {
	t.Parallel()
	cfg := ScaledConfig(64)
	pts := hammerPoints()

	// Sequential baseline.
	seq := NewSession(cfg)
	baseline := make([]interface{}, len(pts))
	for i, p := range pts {
		if p.Trace {
			c, err := studyCell(seq, p)
			if err != nil {
				t.Fatal(err)
			}
			baseline[i] = c
			continue
		}
		r, err := seq.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = r.LLC
	}

	// Concurrent hammer: goroutines sweep the same points from rotated
	// starting offsets, so at any moment several goroutines are asking for
	// the same key while others race ahead.
	const goroutines = 8
	const rounds = 3
	conc := NewSession(cfg)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := range pts {
					p := pts[(k+g*len(pts)/goroutines)%len(pts)]
					if err := conc.Prefetch([]Datapoint{p}); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Determinism: concurrent results match the sequential baseline.
	for i, p := range pts {
		if p.Trace {
			c, err := studyCell(conc, p)
			if err != nil {
				t.Fatal(err)
			}
			if c != baseline[i].(optDatapoint) {
				t.Fatalf("study cell %s/%s: concurrent %+v, sequential %+v", p.DS, p.App, c, baseline[i])
			}
			continue
		}
		r, err := conc.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if r.LLC != baseline[i] {
			t.Fatalf("datapoint %+v: concurrent %+v != sequential %+v", p, r.LLC, baseline[i])
		}
	}

	// Dedup: despite goroutines x rounds sweeps, each distinct simulation
	// ran exactly once (study cells are not results).
	distinct := make(map[Datapoint]bool)
	for _, p := range pts {
		if !p.Trace {
			distinct[p] = true
		}
	}
	if got := conc.Ledger().Full.Cells; got != uint64(len(distinct)) {
		t.Fatalf("full cells = %d, want %d (singleflight failed to dedup)", got, len(distinct))
	}
}

// TestPrefetchMatchesSequentialOutput renders one full experiment both ways
// — cold sequential session vs prefetched via Run — and requires
// byte-identical output (the engine's core output-equivalence guarantee).
func TestPrefetchMatchesSequentialOutput(t *testing.T) {
	t.Parallel()
	e, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}

	var seqBuf bytes.Buffer
	if err := e.Run(NewSession(ScaledConfig(64)), &seqBuf); err != nil {
		t.Fatal(err)
	}

	var batchBuf bytes.Buffer
	if err := Run(context.Background(), NewSession(ScaledConfig(64)), e, &batchBuf, nil); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(seqBuf.Bytes(), batchBuf.Bytes()) {
		t.Fatalf("outputs differ:\nsequential:\n%s\nbatched:\n%s", seqBuf.String(), batchBuf.String())
	}
}

// TestConcurrentExperimentsShareDatapoints runs two experiments that read
// the same datapoints concurrently against one session: outputs must agree
// and the shared simulations must run exactly once (the fig5/fig6 dedup
// scenario, on a two-datapoint stand-in so the test stays cheap).
func TestConcurrentExperimentsShareDatapoints(t *testing.T) {
	t.Parallel()
	s := NewSession(ScaledConfig(64))
	mk := func(id string) Experiment {
		return Experiment{
			ID: id,
			Run: func(s *Session, w io.Writer) error {
				base, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "RRIP")
				if err != nil {
					return err
				}
				r, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "GRASP")
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%.6f %d %d\n", r.SpeedupPctOver(base), base.LLC.Misses, r.LLC.Misses)
				return nil
			},
			Points: func() []Datapoint {
				return matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, []string{"GRASP"})
			},
		}
	}
	var bufs [2]bytes.Buffer
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, e := range []Experiment{mk("a"), mk("b")} {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			errs[i] = Run(context.Background(), s, e, &bufs[i], nil)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) || bufs[0].Len() == 0 {
		t.Fatalf("concurrent experiments disagree: %q vs %q", bufs[0].String(), bufs[1].String())
	}
	if got := s.Ledger().Full.Cells; got != 2 {
		t.Fatalf("full cells = %d, want 2 (RRIP + GRASP, each once)", got)
	}
}

// TestPrefetchErrorMatchesSequential: a batch containing an invalid
// datapoint reports the same error a sequential pass would hit first.
func TestPrefetchErrorMatchesSequential(t *testing.T) {
	t.Parallel()
	s := NewSession(ScaledConfig(64))
	pts := []Datapoint{
		{DS: "lj", Reorder: "DBG", App: "PR", Layout: apps.LayoutMerged, Policy: "no-such-policy"},
		{DS: "no-such-dataset", Reorder: "DBG", App: "PR", Layout: apps.LayoutMerged, Policy: "RRIP"},
	}
	err := s.Prefetch(pts)
	if err == nil {
		t.Fatal("expected error")
	}
	_, want := s.Result(pts[0].DS, pts[0].Reorder, pts[0].App, pts[0].Layout, pts[0].Policy)
	if want == nil || err.Error() != want.Error() {
		t.Fatalf("Prefetch error %q, want first sequential failure %q", err, want)
	}

	// Run attributes a prefetch failure to the declaring experiment, also
	// after a union prefetch cached the failure (graspsim's sweep).
	bad := Experiment{ID: "bad-exp",
		Run:    func(s *Session, w io.Writer) error { return nil },
		Points: func() []Datapoint { return pts }}
	err = Run(context.Background(), s, bad, io.Discard, nil)
	if want := "bad-exp: " + want.Error(); err == nil || err.Error() != want {
		t.Fatalf("Run error %q, want %q: the first sequential failure, prefixed with the declaring experiment id", err, want)
	}
}
