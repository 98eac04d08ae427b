package exp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/fail"
	"grasp/internal/sim"
)

// timeless zeroes the one field of a co-run result that legitimately
// differs between sessions: the recording runs' wall-clock.
func timeless(r sim.CorunResult) sim.CorunResult {
	r.Apps = append([]sim.CorunAppResult(nil), r.Apps...)
	for i := range r.Apps {
		r.Apps[i].Solo.AppTime = 0
	}
	return r
}

// TestCorunSmoke is the CI assertion that the co-run sweep takes the
// decode-once path (the co-run twin of TestBroadcastSmoke): a fresh
// session running the corun experiment must perform exactly one fan-out
// per (mix, dataset) — each serving every policy — beside the one
// broadcast per solo-baseline group, and still count 400 distinct co-run
// results, byte-identical to the golden.
func TestCorunSmoke(t *testing.T) {
	e, err := ByID("corun")
	if err != nil {
		t.Fatal(err)
	}
	datasets, mixes := len(highSkewNames()), len(corunMixes())
	policies := len(registeredSchemes()) + 1
	groups := len(corunApps()) * datasets
	s := NewSession(ScaledConfig(goldenScaleDiv))
	var buf bytes.Buffer
	if err := Run(context.Background(), s, e, &buf, nil); err != nil {
		t.Fatal(err)
	}
	runs, cons := s.Ledger().FanOuts()
	if got, want := runs, uint64(groups+mixes*datasets); got != want {
		t.Errorf("fan-outs = %d, want %d (%d solo groups + one per (mix, dataset))", got, want, groups)
	}
	if got, want := cons, uint64((groups+mixes*datasets)*policies); got != want {
		t.Errorf("fan-out consumers = %d, want %d (every policy on every fan-out)", got, want)
	}
	if got, want := s.Ledger().Corun.Cells, uint64(mixes*datasets*policies); got != want {
		t.Errorf("co-run cells = %d, want %d", got, want)
	}
	if got, want := s.art.count(kindCorun), mixes*datasets*policies; got != want {
		t.Errorf("store holds %d co-run results, want %d", got, want)
	}
	if s.PhaseSeconds()["corun"] <= 0 {
		t.Error("phase breakdown missing corun time")
	}
	want, err := os.ReadFile(goldenPath("corun"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from the golden:\n%s", diffSummary(want, buf.Bytes()))
	}
}

// TestCorunRejectsBeforeWork: a mix the simulator would refuse — too wide,
// a non-positive weight, a weight count that does not match, an unknown
// policy — fails before the first workload, recording or solo baseline.
// The local CLI path (graspsim -graph … -corun) relies on this; jobs
// validates its specs itself.
func TestCorunRejectsBeforeWork(t *testing.T) {
	t.Parallel()
	s := NewSession(ScaledConfig(64))
	wide := make([]string, sim.MaxCorunApps+1)
	for i := range wide {
		wide[i] = "PR"
	}
	for name, tc := range map[string]struct {
		mix     []string
		weights []int
		policy  string
	}{
		"no apps":         {nil, nil, "GRASP"},
		"too wide":        {wide, nil, "GRASP"},
		"zero weight":     {[]string{"PR", "BFS"}, []int{1, 0}, "GRASP"},
		"negative weight": {[]string{"PR", "BFS"}, []int{-2, 1}, "GRASP"},
		"weight count":    {[]string{"PR", "BFS"}, []int{1}, "GRASP"},
		"unknown policy":  {[]string{"PR", "BFS"}, nil, "NoSuchPolicy"},
	} {
		if _, err := s.CorunResultCtx(context.Background(), "lj", "DBG", tc.mix, tc.weights, apps.LayoutMerged, tc.policy); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, kd := range []kind{kindWorkload, kindRecording, kindResult, kindCorun} {
		if n := s.art.count(kd); n != 0 {
			t.Errorf("rejected mixes left %d entries of kind %d in the store", n, kd)
		}
	}
}

// TestUnknownPolicyRefusedBeforeWork: the full and the sampled tier refuse
// a policy the registry does not know before the first workload or
// recording, as the co-run tier does above: finding out inside the
// replay would cost a whole application execution first.
func TestUnknownPolicyRefusedBeforeWork(t *testing.T) {
	t.Parallel()
	for name, request := range map[string]func(s *Session) error{
		"full": func(s *Session) error {
			_, err := s.ResultCtx(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged, "NOPE")
			return err
		},
		"sampled": func(s *Session) error {
			_, err := s.SampledResultCtx(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged, "NOPE", 4)
			return err
		},
	} {
		s := NewSession(ScaledConfig(64))
		if err := request(s); err == nil || !strings.Contains(err.Error(), `unknown policy "NOPE"`) {
			t.Errorf("%s: err = %v, want the registry's unknown-policy error", name, err)
		}
		for _, kd := range []kind{kindWorkload, kindRecording, kindResult, kindSampled} {
			if n := s.art.count(kd); n != 0 {
				t.Errorf("%s: the refused request left %d entries of kind %d in the store", name, n, kd)
			}
		}
	}
}

// TestCorunPreparesOnlyTheRecordingsWorkloads: the co-run pipeline loads
// and reorders exactly what its recordings need. It used to prepare one
// more workload keyed on the joined mix name — never "SSSP", so always
// unweighted — just to read the dataset's name: a mix of SSSP alone paid
// an unweighted load + reorder beside the weighted one it replays.
func TestCorunPreparesOnlyTheRecordingsWorkloads(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		mix       []string
		workloads int
	}{
		{[]string{"SSSP", "SSSP"}, 1}, // weighted only
		{[]string{"PR", "SSSP"}, 2},   // one of each
	} {
		s := NewSession(ScaledConfig(64))
		r, err := s.CorunResultCtx(context.Background(), "lj", "DBG", tc.mix, nil, apps.LayoutMerged, "GRASP")
		if err != nil {
			t.Fatal(err)
		}
		if r.Workload != "lj" {
			t.Errorf("%v: result names dataset %q, want lj", tc.mix, r.Workload)
		}
		if got := s.art.count(kindWorkload); got != tc.workloads {
			t.Errorf("%v: prepared %d workloads, want %d", tc.mix, got, tc.workloads)
		}
	}
}

// TestCorunFaultPublishesNothing: a per-mix coruns call that does not
// finish — its context cancelled, or a replay fault in the middle of the
// merge — returns the fault (the context's cause included) and publishes
// no co-run result for ANY of its policies; the same call then succeeds
// and matches an undisturbed session. Not parallel: failpoints are
// process-global.
func TestCorunFaultPublishesNothing(t *testing.T) {
	defer fail.Reset()
	mix, policies := []string{"BFS", "PR"}, []string{"RRIP", "GRASP", "LRU"}
	s := NewSession(ScaledConfig(64))
	if err := s.Prefetch(matrixPoints([]string{"lj"}, "DBG", mix, policies[1:])); err != nil {
		t.Fatal(err)
	}
	m, err := s.newCorunMix(s.dataset("lj"), "DBG", mix, nil, apps.LayoutMerged)
	if err != nil {
		t.Fatal(err)
	}

	cause := errors.New("test: job deleted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := s.coruns(ctx, m, policies); !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Fatalf("cancelled fan-out: err = %v, want the context's error carrying its cause", err)
	}
	fail.ArmAfter("trace.replay.chunk", 1, nil) // the second stream's first chunk
	if _, err := s.coruns(context.Background(), m, policies); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("fan-out with a mid-merge replay fault: err = %v, want %v", err, fail.ErrInjected)
	}
	fail.Disarm("trace.replay.chunk")
	if n, work := s.art.count(kindCorun), s.Ledger().Corun; n != 0 || work != (TierWork{}) {
		t.Fatalf("failed fan-outs published %d co-run results (ledger %+v), want none", n, work)
	}

	if _, err := s.coruns(context.Background(), m, policies); err != nil {
		t.Fatal(err)
	}
	if n, runs := s.art.count(kindCorun), s.Ledger().Corun.Cells; n != len(policies) || runs != uint64(len(policies)) {
		t.Fatalf("fan-out published %d co-run results (%d cells), want %d", n, runs, len(policies))
	}
	fresh := NewSession(ScaledConfig(64))
	for _, pol := range policies {
		got, err := s.CorunResultCtx(context.Background(), "lj", "DBG", mix, nil, apps.LayoutMerged, pol)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.CorunResultCtx(context.Background(), "lj", "DBG", mix, nil, apps.LayoutMerged, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(timeless(got), timeless(want)) {
			t.Errorf("%s: fan-out's result diverges from a one-policy run on a fresh session\n got: %+v\nwant: %+v", pol, got, want)
		}
	}
	if runs := s.Ledger().Corun.Cells; runs != uint64(len(policies)) {
		t.Errorf("reading the published results recomputed: co-run cells = %d, want %d", runs, len(policies))
	}
}

// TestCorunPanicIsContainedPerUnit: a panic under one (dataset, mix) unit
// of the sweep's Prefetch (here every unit: the trace.replay.chunk
// failpoint, armed once the solo baselines are settled) must not escape
// its worker goroutine — that would kill the process, job daemon
// included. The co-run cells fail with the panic in their error and
// nothing is published. Disarmed, the same session completes the sweep.
// Not parallel: failpoints are process-global.
func TestCorunPanicIsContainedPerUnit(t *testing.T) {
	defer fail.Reset()
	s := NewSession(ScaledConfig(256))
	var solo []Datapoint
	for _, p := range corunPoints() {
		if p.Plain() {
			solo = append(solo, p)
		}
	}
	if err := s.Prefetch(solo); err != nil {
		t.Fatal(err)
	}
	fail.ArmPanic("trace.replay.chunk", "policy bug")
	err := s.Prefetch(corunPoints())
	fail.Disarm("trace.replay.chunk")
	if err == nil || !strings.Contains(err.Error(), "policy bug") {
		t.Fatalf("prefetch with panicking co-run units: err = %v, want the injected panic", err)
	}
	if n := s.art.count(kindCorun); n != 0 {
		t.Fatalf("panicked units left %d co-run entries in the store", n)
	}
	if err := s.Prefetch(corunPoints()); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Ledger().Corun.Cells, uint64(len(corunMixes())*len(highSkewNames())*len(corunPolicies())); got != want {
		t.Errorf("co-run cells after the contained panic = %d, want %d", got, want)
	}
}

// TestCorunRunCancelSpansCorunCells: the co-run cells are Prefetch units,
// so an experiment job's progress and cancellation span them. exp.Run of
// corun, cancelled once onProgress has passed the solo cells, returns an
// error carrying the cause and leaves co-run cells uncomputed, and its
// progress total counts them.
func TestCorunRunCancelSpansCorunCells(t *testing.T) {
	t.Parallel()
	e, err := ByID("corun")
	if err != nil {
		t.Fatal(err)
	}
	solo := len(corunApps()) * len(highSkewNames()) * len(corunPolicies())
	cells := len(corunMixes()) * len(highSkewNames()) * len(corunPolicies())
	s := NewSession(ScaledConfig(goldenScaleDiv))
	cause := errors.New("test: job deleted")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var total atomic.Int64
	err = Run(ctx, s, e, io.Discard, func(done, n int) {
		total.Store(int64(n))
		if done >= solo {
			cancel(cause)
		}
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Fatalf("cancelled run: err = %v, want the context's error carrying its cause", err)
	}
	if got := s.art.count(kindCorun); got >= cells {
		t.Errorf("cancelled run computed %d co-run cells, want fewer than %d", got, cells)
	}
	if got := total.Load(); got != int64(solo+cells) {
		t.Errorf("progress total = %d, want %d solo + %d co-run cells", got, solo, cells)
	}
}

// TestCorunEvictionCannotReleasePinnedRecordings races per-mix fan-outs against
// continuous recording eviction: under a one-byte budget every new
// recording evicts the others, including the ones a fan-out in flight is
// merging. An eviction only drops the store's reference and charge, and
// the fan-out holds its mix's recordings as values until it ends, so
// every result must equal an unpressured session's. (The name predates
// that: recordings were once pinned against an eager release.)
// Run under -race in CI.
func TestCorunEvictionCannotReleasePinnedRecordings(t *testing.T) {
	t.Parallel()
	mixes := [][]string{{"BFS", "PR"}, {"KCore", "TC"}, {"PR", "KCore", "PR"}}
	policies := []string{"RRIP", "GRASP", "SHiP-PC", "Leeway"}

	baseline := NewSession(ScaledConfig(64))
	cfg := ScaledConfig(64)
	s := NewStore(1).Session(cfg)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for round := 0; round < 2; round++ {
		for _, mix := range mixes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := s.newCorunMix(s.dataset("kr"), "DBG", mix, nil, apps.LayoutMerged)
				if err == nil {
					_, err = s.coruns(context.Background(), m, policies)
				}
				if err != nil {
					errc <- err
				}
			}()
		}
		// Churn: recordings of other groups, each evicting the mixes'.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Prefetch(matrixPoints([]string{"kr"}, "DBG", []string{"BC", "Radii"}, policies[1:])); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, mix := range mixes {
		for _, pol := range policies {
			got, err := s.CorunResultCtx(context.Background(), "kr", "DBG", mix, nil, apps.LayoutMerged, pol)
			if err != nil {
				t.Fatal(err)
			}
			want, err := baseline.CorunResultCtx(context.Background(), "kr", "DBG", mix, nil, apps.LayoutMerged, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(timeless(got), timeless(want)) {
				t.Fatalf("%v/%s: result under eviction pressure diverges\n got: %+v\nwant: %+v", mix, pol, got, want)
			}
		}
	}
}
