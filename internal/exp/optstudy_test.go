package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
)

// studyGeometries returns the distinct LLC geometries of the Table VII
// ladder under cfg (small scales clamp several entries to one).
func studyGeometries(cfg Config) []cache.Config {
	var out []cache.Config
	seen := make(map[cache.Config]bool)
	for _, e := range optLadder {
		if llc := studyLLC(cfg.HCfg.LLC, e.scale); !seen[llc] {
			seen[llc] = true
			out = append(out, llc)
		}
	}
	return out
}

// checkGolden compares one experiment's output with its committed golden.
func checkGolden(t *testing.T, id string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n%s", id, diffSummary(want, got))
	}
}

// TestOPTStudyOnePass is the CI assertion that the OPT study is ONE pass
// per (app, dataset) pair (the study's twin of TestBroadcastSmoke and
// TestCorunSmoke): a fresh session running fig11 and table7 performs
// exactly one fan-out per pair — feeding an LRU, an RRIP and a GRASP LLC
// per distinct ladder geometry plus the block collector — not one per
// pair per size per experiment; table7's 16MB* column is the very store
// entries fig11 reads; and fig11 alone simulates the base size only.
func TestOPTStudyOnePass(t *testing.T) {
	fig11, err := ByID("fig11")
	if err != nil {
		t.Fatal(err)
	}
	table7, err := ByID("table7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(goldenScaleDiv)
	pairs := uint64(len(apps.Names()) * len(highSkewNames()))
	sizes := uint64(len(studyGeometries(cfg)))
	fanOuts := func(run func(s *Session)) (runs, consumers uint64) {
		s := NewSession(cfg)
		run(s)
		return s.Ledger().FanOuts()
	}

	runs, cons := fanOuts(func(s *Session) {
		// The union first, as graspsim's sweep does: each pair's one pass
		// then serves fig11's geometry and table7's together.
		if err := s.Prefetch(append(fig11.Points(), table7.Points()...)); err != nil {
			t.Fatal(err)
		}
		for _, e := range []Experiment{fig11, table7} {
			if err := Run(context.Background(), s, e, &bytes.Buffer{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Rendering again reads the store: no new cell, no new fan-out.
		cells := s.art.count(kindOPT)
		for _, e := range []Experiment{fig11, table7} {
			var buf bytes.Buffer
			if err := e.Run(s, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.ID, buf.Bytes())
		}
		if got := s.art.count(kindOPT); got != cells || uint64(got) != pairs*sizes {
			t.Errorf("store holds %d study cells (%d before re-rendering), want %d pairs x %d geometries", got, cells, pairs, sizes)
		}
		for _, app := range apps.Names() {
			for _, ds := range highSkewNames() {
				g := group(s.dataset(ds), "DBG", app, apps.LayoutMerged)
				if !s.art.ready(optKey(g, studyLLC(cfg.HCfg.LLC, 1))) {
					t.Errorf("%s/%s: no cell at the base geometry — fig11 and table7's 16MB* column must share it", app, ds)
				}
			}
		}
		if s.Ledger().Full.Cells != 0 {
			t.Errorf("study cells counted as %d result datapoints", s.Ledger().Full.Cells)
		}
	})
	if runs != pairs {
		t.Errorf("fig11+table7: %d fan-outs, want one per pair (%d)", runs, pairs)
	}
	if want := pairs * (3*sizes + 1); cons != want {
		t.Errorf("fig11+table7: %d fan-out consumers, want %d (3 LLCs x %d geometries + the block collector, per pair)", cons, want, sizes)
	}

	runs, cons = fanOuts(func(s *Session) {
		var buf bytes.Buffer
		if err := Run(context.Background(), s, fig11, &buf, nil); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "fig11", buf.Bytes())
		if got := s.art.count(kindOPT); uint64(got) != pairs {
			t.Errorf("fig11 alone left %d study cells, want %d (the base size only)", got, pairs)
		}
	})
	if runs != pairs || cons != pairs*4 {
		t.Errorf("fig11 alone: %d fan-outs with %d consumers, want %d with %d", runs, cons, pairs, pairs*4)
	}
}

// pollCancelCtx cancels itself, with a cause, on its n-th Err call: the
// engine polls ctx.Err at every cancellation point (unit start, each trace
// chunk, each OPT simulation), so sweeping n walks a cancellation through
// every one of them deterministically, on any core count.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelCauseFunc
	cause  error
	left   atomic.Int64
}

func newPollCancelCtx(n int64, cause error) *pollCancelCtx {
	c := &pollCancelCtx{cause: cause}
	c.Context, c.cancel = context.WithCancelCause(context.Background())
	c.left.Store(n)
	return c
}

func (c *pollCancelCtx) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel(c.cause)
	}
	return c.Context.Err()
}

// TestOPTStudyCancelPublishesNothing: the study runs under the Prefetch
// context, so a cancelled table7/fig11 job stops at the next cancellation
// point — it used to simulate to the end under context.Background() —
// returns the context's cause, and publishes no study cell, whichever
// point the cancellation lands on; the request that finally runs to
// completion matches an undisturbed session.
func TestOPTStudyCancelPublishesNothing(t *testing.T) {
	t.Parallel()
	cfg := ScaledConfig(goldenScaleDiv)
	var pts []Datapoint
	for _, e := range optLadder {
		pts = append(pts, Datapoint{DS: "kr", App: "PR", Trace: true, OPTScale: e.scale})
	}
	s := NewSession(cfg)
	// Record first: every poll below then belongs to the study itself.
	if _, _, err := s.Recording(context.Background(), "kr", "DBG", "PR", apps.LayoutMerged); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("test: job deleted")
	cancelled := 0
	for n := int64(1); ; n++ {
		if n > 64 {
			t.Fatal("study still cancelled after 64 polls")
		}
		ctx := newPollCancelCtx(n, cause)
		err := s.PrefetchObservedCtx(ctx, pts, nil)
		if err == nil {
			if ctx.Context.Err() != nil {
				t.Fatalf("poll %d: context cancelled but the study reported success", n)
			}
			break
		}
		cancelled++
		if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
			t.Fatalf("poll %d: err = %v, want the context's error carrying its cause", n, err)
		}
		if got, work := s.art.count(kindOPT), s.Ledger().OPT; got != 0 || work != (TierWork{}) {
			t.Fatalf("poll %d: cancelled study published %d cells, counted %+v", n, got, work)
		}
	}
	// Unit start, at least one chunk, one check per distinct geometry.
	if want := 2 + len(studyGeometries(cfg)); cancelled < want {
		t.Errorf("only %d cancellation points reached, want at least %d", cancelled, want)
	}
	fresh := NewSession(cfg)
	g := group(s.dataset("kr"), "DBG", "PR", apps.LayoutMerged)
	for _, llc := range studyGeometries(cfg) {
		got, err := one(s.optCells(context.Background(), g, []cache.Config{llc}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := one(fresh.optCells(context.Background(), g, []cache.Config{llc}))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d-byte LLC: cell after cancellations %+v, undisturbed (computed alone) %+v", llc.SizeBytes, got, want)
		}
	}
}

// doneCountingCtx makes Done a poll too. The Recorder never calls Err — it
// watches the Done channel it fetched when the recording started — so a
// cancellation walked through Err alone can only ever land in a replay;
// counting the two Done calls that open a recording hands the Recorder a
// channel already closed, and it unwinds at its first in-stream check.
type doneCountingCtx struct{ *pollCancelCtx }

func (c doneCountingCtx) Done() <-chan struct{} {
	c.Err()
	return c.Context.Done()
}

// TestLoneResultCancelPublishesNothing: a cold ResultCtx records before it
// replays, so its caller's cancellation can now land inside a recording.
// Whichever poll of the cold path it lands on, the error carries the
// context's cause and no result is published; a recording cut short is
// abandoned — nothing retained — while one that completed before a
// cancelled replay stays, whole, for the next request. The call that runs
// to completion equals the execution-driven reference.
func TestLoneResultCancelPublishesNothing(t *testing.T) {
	t.Parallel()
	cfg := ScaledConfig(goldenScaleDiv)
	cause := errors.New("test: job deleted")
	var inRecording, inReplay int
	for n := int64(1); ; n++ {
		if n > 64 {
			t.Fatal("cold result still cancelled after 64 polls")
		}
		s := NewSession(cfg) // cold every time: the walk covers record AND replay
		ctx := doneCountingCtx{newPollCancelCtx(n, cause)}
		got, err := s.ResultCtx(ctx, "kr", "DBG", "PR", apps.LayoutMerged, "GRASP")
		if err == nil {
			if ctx.Context.Err() != nil {
				t.Fatalf("poll %d: context cancelled but the result reported success", n)
			}
			want := simRun(t, cfg, "kr", "DBG", "PR", apps.LayoutMerged, "GRASP")
			if got.AppTime = want.AppTime; got != want {
				t.Errorf("undisturbed run diverges from sim.Run\nsession: %+v\n sim.Run: %+v", got, want)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
			t.Fatalf("poll %d: err = %v, want the context's error carrying its cause", n, err)
		}
		if got, work := s.art.count(kindResult), s.Ledger().Full; got != 0 || work != (TierWork{}) {
			t.Fatalf("poll %d: cancelled request published %d results, counted %+v", n, got, work)
		}
		if fullRecordingReady(s, "kr", "PR") {
			inReplay++
			continue
		}
		inRecording++
		if e, b, l := s.art.count(kindRecording), s.CacheBytesRetained(), s.Ledger(); e != 0 || b != 0 || l.Recordings != 0 {
			t.Fatalf("poll %d: cancelled recording left %d entries, %d bytes retained, %d counted", n, e, b, l.Recordings)
		}
	}
	if inRecording == 0 || inReplay == 0 {
		t.Errorf("cancellation landed %d times in the recording and %d in the replay, want both reached", inRecording, inReplay)
	}
}
