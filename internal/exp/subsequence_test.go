package exp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/sim"
)

// subK is the sampling divisor of the subsequence tests: on
// subsequenceCfg's 64-set LLC it samples exactly 16 sets, so estimates
// replay the group's subsequence.
const subK = 4

// subsequenceCfg is scale 32 (lj/PR records two chunks' worth) with a
// 64-set LLC.
func subsequenceCfg() Config {
	cfg := ScaledConfig(32)
	cfg.HCfg.LLC = cache.Config{SizeBytes: 64 << 10, Ways: 16}
	return cfg
}

// ljPR is the lj/DBG/PR/merged group of s.
func ljPR(s *Session) artifactKey { return group(s.dataset("lj"), "DBG", "PR", apps.LayoutMerged) }

// subsequences counts the store's sampled-subsequence entries.
func (a *Store) subsequences() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for k := range a.m {
		if k.kind == kindRecording && k.n != 0 {
			n++
		}
	}
	return n
}

// charged returns what the entry under k is charged (0 if absent).
func (a *Store) charged(k artifactKey) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.m[k]; e != nil {
		return e.bytes
	}
	return 0
}

// estimate is lj/PR's 1/subK estimate under policy, AppTime (a recording's
// wall-clock) zeroed.
func estimate(t *testing.T, ctx context.Context, s *Session, policy string) sim.SampledResult {
	t.Helper()
	r, err := s.SampledResultCtx(ctx, "lj", "DBG", "PR", apps.LayoutMerged, policy, subK)
	if err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	r.AppTime = 0
	return r
}

// maskedEstimates is what the subsequence replays must equal: each
// policy's estimate by a masked replay of the group's full recording, in a
// session of its own.
func maskedEstimates(t *testing.T, policies []string) map[string]sim.SampledResult {
	t.Helper()
	ref := NewSession(subsequenceCfg())
	out := make(map[string]sim.SampledResult, len(policies))
	tr, bounds, err := ref.Recording(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range policies {
		spec := sim.Spec{App: "PR", Layout: apps.LayoutMerged, Policy: p, HCfg: ref.Cfg.HCfg}
		r, _, err := sim.SampledReplayResultSkipCtx(context.Background(), tr, spec, "lj", bounds, subK)
		if err != nil {
			t.Fatal(err)
		}
		r.AppTime = 0
		out[p] = r
	}
	return out
}

// TestSampledSourceGate pins which estimates replay a subsequence: K >= 2
// with a selection SampledSets did not floor, i.e. at least 2K sets.
func TestSampledSourceGate(t *testing.T) {
	for _, c := range []struct {
		sets, k, want uint32
	}{
		{4, 1, 0}, {4, 2, 2}, {4, 4, 0}, {16, 4, 4}, {16, 8, 8}, {16, 16, 0}, {64, 64, 0}, {256, 64, 64},
	} {
		cfg := ScaledConfig(64)
		cfg.HCfg.LLC = cache.Config{SizeBytes: uint64(c.sets) * 16 * cache.BlockSize, Ways: 16}
		s := NewSession(cfg)
		if got := s.sampledSource(ljPR(s), c.k); got.n != c.want {
			t.Errorf("%d sets, K=%d: source n = %d, want %d", c.sets, c.k, got.n, c.want)
		}
	}
}

// TestSubsequenceEvictedIndependently: under a tight budget the
// subsequence and the full recording it was pruned from are evicted each
// on its own recency, and an estimate rebuilds only what is missing —
// the subsequence from a cached full recording without re-recording, or
// nothing when the subsequence survived its parent. Every estimate equals
// the masked replay of the full recording.
func TestSubsequenceEvictedIndependently(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	policies := []string{"LRU", "SRRIP", "PLRU", "GRASP"}
	want := maskedEstimates(t, policies)
	st := NewStore(0)
	s := st.Session(subsequenceCfg())
	full := ljPR(s)
	sub := s.sampledSource(full, subK)
	check := func(policy string, builds uint64, recorded bool) {
		t.Helper()
		records := s.phase.record.Load()
		if got := estimate(t, ctx, s, policy); got != want[policy] {
			t.Errorf("%s: subsequence estimate diverges from the masked full replay\n got: %+v\nwant: %+v", policy, got, want[policy])
		}
		if n := s.subBuilds.Load(); n != builds {
			t.Fatalf("%s: %d subsequences built, want %d", policy, n, builds)
		}
		if rerecorded := s.phase.record.Load() != records; rerecorded != recorded {
			t.Fatalf("%s: full recording re-recorded = %v, want %v", policy, rerecorded, recorded)
		}
	}

	check("LRU", 1, true)
	F, S := st.charged(full), st.charged(sub)
	if S <= 0 || S >= F {
		t.Fatalf("subsequence charged %d bytes, full recording %d: want 0 < sub < full", S, F)
	}
	// The full recording is the more recent (the build looked it up after
	// claiming the subsequence): one byte short evicts the subsequence.
	st.SetBudget(F + S - 1)
	if st.ready(sub) || !st.ready(full) || st.CacheBytesRetained() != F {
		t.Fatalf("budget %d: subsequence cached %v, full %v, retained %d; want only the full recording",
			F+S-1, st.ready(sub), st.ready(full), st.CacheBytesRetained())
	}
	// Rebuilt from the cached full recording, which is then the least
	// recent and goes: the subsequence outlives its parent.
	check("SRRIP", 2, false)
	if !st.ready(sub) || st.ready(full) || st.CacheBytesRetained() != S {
		t.Fatalf("after the rebuild: subsequence cached %v, full %v, retained %d; want only the subsequence",
			st.ready(sub), st.ready(full), st.CacheBytesRetained())
	}
	check("PLRU", 2, false)
	// With both gone an estimate records and prunes again.
	st.SetBudget(1)
	if n := st.subsequences(); n != 0 || st.ready(full) {
		t.Fatalf("budget 1: %d subsequences, full recording cached %v; want neither", n, st.ready(full))
	}
	check("GRASP", 3, true)
}

// cancelOnPoll cancels itself on its n-th Err poll. A cursor polls once
// per chunk, so n = 2 strikes after the first chunk has been decoded:
// mid-build, not before it.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	n      int32
	polls  atomic.Int32
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSubsequenceCancelLeavesNoEntry: a cancel that strikes while the
// subsequence is being built settles nothing — no subsequence, no
// estimate, no charge (the transient rule) — and leaves the full
// recording it was reading cached; the next estimate builds it.
func TestSubsequenceCancelLeavesNoEntry(t *testing.T) {
	t.Parallel()
	want := maskedEstimates(t, []string{"GRASP"})
	s := NewSession(subsequenceCfg())
	full := ljPR(s)
	if _, _, err := s.Recording(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged); err != nil {
		t.Fatal(err)
	}
	F := s.art.charged(full)

	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelOnPoll{Context: inner, cancel: cancel, n: 2}
	_, err := s.SampledResultCtx(ctx, "lj", "DBG", "PR", apps.LayoutMerged, "GRASP", subK)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("estimate cancelled mid-build: err = %v, want context.Canceled", err)
	}
	if p := ctx.polls.Load(); p < 2 {
		t.Fatalf("the context was polled %d times: the cancel did not land inside the build", p)
	}
	if n, e := s.art.subsequences(), s.art.count(kindSampled); n != 0 || e != 0 {
		t.Fatalf("after the cancel: %d subsequences, %d estimates cached; want none", n, e)
	}
	if !s.art.ready(full) || s.CacheBytesRetained() != F || s.subBuilds.Load() != 0 || s.SampledRuns() != 0 {
		t.Fatalf("after the cancel: full recording cached %v, retained %d (want %d), %d builds, %d estimates",
			s.art.ready(full), s.CacheBytesRetained(), F, s.subBuilds.Load(), s.SampledRuns())
	}
	if got := estimate(t, context.Background(), s, "GRASP"); got != want["GRASP"] {
		t.Errorf("estimate after the cancel diverges\n got: %+v\nwant: %+v", got, want["GRASP"])
	}
	if n := s.subBuilds.Load(); n != 1 || s.art.subsequences() != 1 {
		t.Fatalf("after a live estimate: %d builds, %d subsequences; want 1 and 1", n, s.art.subsequences())
	}
}

// TestSubsequenceConcurrentBuildsOnce: first estimates of one (group, K)
// under every registered policy, issued at once, build the subsequence
// once and all replay it (run under -race in CI).
func TestSubsequenceConcurrentBuildsOnce(t *testing.T) {
	t.Parallel()
	var policies []string
	for _, p := range sim.Policies() {
		policies = append(policies, p.Name)
	}
	want := maskedEstimates(t, policies)
	s := NewSession(subsequenceCfg())
	got := make([]sim.SampledResult, len(policies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = estimate(t, context.Background(), s, p)
		}()
	}
	close(start)
	wg.Wait()
	if n := s.subBuilds.Load(); n != 1 || s.art.subsequences() != 1 {
		t.Fatalf("%d concurrent first estimates: %d builds, %d subsequences cached; want 1 and 1",
			len(policies), n, s.art.subsequences())
	}
	if n := s.SampledRuns(); n != uint64(len(policies)) {
		t.Fatalf("SampledRuns = %d, want %d", n, len(policies))
	}
	for i, p := range policies {
		if got[i] != want[p] {
			t.Errorf("%s: concurrent estimate diverges\n got: %+v\nwant: %+v", p, got[i], want[p])
		}
	}
}
