package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/fail"
	"grasp/internal/sim"
	"grasp/internal/trace"
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
// results, byte-identical to the golden. Not parallel: it reads exact
// deltas of the process-wide trace counters.
func TestCorunSmoke(t *testing.T) {
	e, err := ByID("corun")
	if err != nil {
		t.Fatal(err)
	}
	datasets, mixes := len(highSkewNames()), len(corunMixes())
	policies := len(registeredSchemes()) + 1
	groups := len(corunApps()) * datasets
	runs0, cons0 := trace.BroadcastStats()
	s := NewSession(ScaledConfig(goldenScaleDiv))
	defer s.art.releaseAll()
	var buf bytes.Buffer
	if err := e.Run(s, &buf); err != nil {
		t.Fatal(err)
	}
	runs, cons := trace.BroadcastStats()
	if got, want := runs-runs0, uint64(groups+mixes*datasets); got != want {
		t.Errorf("fan-outs = %d, want %d (%d solo groups + one per (mix, dataset))", got, want, groups)
	}
	if got, want := cons-cons0, uint64((groups+mixes*datasets)*policies); got != want {
		t.Errorf("fan-out consumers = %d, want %d (every policy on every fan-out)", got, want)
	}
	if got, want := s.CorunRuns(), uint64(mixes*datasets*policies); got != want {
		t.Errorf("CorunRuns = %d, want %d", got, want)
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
	for _, kd := range []kind{kindBase, kindWorkload, kindRecording, kindResult, kindCorun} {
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
		for _, kd := range []kind{kindBase, kindWorkload, kindRecording, kindResult, kindSampled} {
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
		if got := s.art.count(kindBase); got != tc.workloads {
			t.Errorf("%v: loaded %d base graphs, want %d", tc.mix, got, tc.workloads)
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
	defer s.art.releaseAll()
	if err := s.Prefetch(matrixPoints([]string{"lj"}, "DBG", mix, policies[1:])); err != nil {
		t.Fatal(err)
	}
	m, err := s.newCorunMix("lj", "DBG", mix, nil, apps.LayoutMerged)
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
	if n, runs := s.art.count(kindCorun), s.CorunRuns(); n != 0 || runs != 0 {
		t.Fatalf("failed fan-outs published %d co-run results (CorunRuns %d), want none", n, runs)
	}

	if _, err := s.coruns(context.Background(), m, policies); err != nil {
		t.Fatal(err)
	}
	if n, runs := s.art.count(kindCorun), s.CorunRuns(); n != len(policies) || runs != uint64(len(policies)) {
		t.Fatalf("fan-out published %d co-run results (CorunRuns %d), want %d", n, runs, len(policies))
	}
	fresh := NewSession(ScaledConfig(64))
	defer fresh.art.releaseAll()
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
	if runs := s.CorunRuns(); runs != uint64(len(policies)) {
		t.Errorf("reading the published results recomputed: CorunRuns = %d, want %d", runs, len(policies))
	}
}

// TestCorunPanicIsContainedPerUnit: a panic under one per-mix step of the
// sweep (here every step: the trace.replay.chunk failpoint) must not
// escape its worker goroutine — that would kill the process, job daemon
// included. The steps fail, nothing is published, and the panic recurs on
// the rendering pass, on the caller's goroutine, where the job manager
// contains it. Disarmed, the same session completes the sweep. Not
// parallel: failpoints are process-global.
func TestCorunPanicIsContainedPerUnit(t *testing.T) {
	defer fail.Reset()
	s := NewSession(ScaledConfig(256))
	defer s.art.releaseAll()
	if err := s.Prefetch(corunPoints()); err != nil {
		t.Fatal(err)
	}
	fail.ArmPanic("trace.replay.chunk", "policy bug")
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(p.(string), "policy bug") {
				t.Errorf("rendering pass recovered %v, want the injected panic", p)
			}
		}()
		_ = runCorun(s, &bytes.Buffer{})
	}()
	fail.Disarm("trace.replay.chunk")
	if n := s.art.count(kindCorun); n != 0 {
		t.Fatalf("panicked steps left %d co-run entries in the store", n)
	}
	if err := runCorun(s, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got, want := s.CorunRuns(), uint64(len(corunMixes())*len(highSkewNames())*(len(registeredSchemes())+1)); got != want {
		t.Errorf("CorunRuns after the contained panic = %d, want %d", got, want)
	}
}

// TestCorunEvictionCannotReleasePinnedRecordings races per-mix fan-outs against
// continuous recording eviction: under a one-byte budget every new
// recording evicts (and Releases) the others, including the ones a
// fan-out in flight is merging. The fan-out pins its mix's recordings for
// the whole fan-out, so every result must equal an unpressured session's.
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
				m, err := s.newCorunMix("kr", "DBG", mix, nil, apps.LayoutMerged)
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
