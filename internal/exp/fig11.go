package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/policy"
	"grasp/internal/sim"
	"grasp/internal/stats"
	"grasp/internal/trace"
)

// optTraceCap bounds the LLC trace length per datapoint (the paper uses
// traces of up to 2 billion accesses; scaled down with everything else).
const optTraceCap = 8_000_000

// The OPT study (Sec. V-D, Fig. 11 and Table VII): the bounded prefix of
// every (app, high-skew dataset) LLC trace, recorded under DBG reordering,
// evaluated under LRU, RRIP, GRASP and Belady's OPT at each LLC size of a
// ladder. One study CELL is one pair at one size; experiments declare the
// cells they read (Datapoint.OPTScale), a driver's Prefetch computes all
// the pending cells of a pair in one pass over its recording (optCells),
// and the bodies read them back from the store (DESIGN.md Sec. 12).

// optLadder is the LLC size sweep: the scaled analogues of the paper's 1,
// 4, 8, 16 and 32 MB as multiples of the session's LLC capacity (the 16MB*
// entry is the main evaluation's LLC, and Fig. 11's).
var optLadder = []struct {
	label string
	scale float64
}{{"1MB*", 1.0 / 16}, {"4MB*", 0.25}, {"8MB*", 0.5}, {"16MB*", 1}, {"32MB*", 2}}

// studyLLC returns the LLC geometry of a study cell: scale x the base
// capacity at the base associativity, no smaller than two sets. Small
// scales clamp — at 1/64 scale the four lower ladder entries are one
// geometry — and cells of one geometry are one store entry, computed once.
func studyLLC(base cache.Config, scale float64) cache.Config {
	sz := uint64(float64(base.SizeBytes) * scale)
	if min := uint64(base.Ways) * cache.BlockSize * 2; sz < min {
		sz = min
	}
	return cache.Config{SizeBytes: sz, Ways: base.Ways}
}

// studyPoints declares the study's cells at the given LLC scales: apps x
// high-skew datasets x scales.
func studyPoints(scales ...float64) []Datapoint {
	var out []Datapoint
	for _, app := range apps.Names() {
		for _, ds := range highSkewNames() {
			for _, scale := range scales {
				out = append(out, Datapoint{DS: ds, App: app, Trace: true, OPTScale: scale})
			}
		}
	}
	return out
}

func fig11Points() []Datapoint { return studyPoints(1) }

func table7Points() []Datapoint {
	scales := make([]float64, len(optLadder))
	for i, e := range optLadder {
		scales[i] = e.scale
	}
	return studyPoints(scales...)
}

// optDatapoint holds the replayed miss counts of one (app, dataset) trace
// at one LLC size.
type optDatapoint struct {
	lru, rrip, grasp, opt uint64
}

// optKey is the store key of the study cell of recording group g at one
// LLC geometry (the associativity is the session's).
func optKey(g artifactKey, llc cache.Config) artifactKey {
	k := g.of(kindOPT, "")
	k.n = uint32(llc.SizeBytes / cache.BlockSize)
	return k
}

// optPass evaluates one pair's study cells at every listed LLC geometry
// from ONE decode of the recording's bounded prefix: the broadcast feeds
// an LRU, an RRIP and a GRASP replay LLC per geometry plus one collector
// of the block-address stream; the next-use chain — independent of the
// geometry — is computed once from it, and Belady's OPT then runs per
// geometry over the shared read-only chain. Cancellation is the broadcast
// cursor's per-chunk poll plus one check per OPT simulation.
func (s *Session) optPass(ctx context.Context, rec recording, llcs []cache.Config) ([]optDatapoint, error) {
	start := time.Now()
	defer func() { s.phase.replay.Add(int64(time.Since(start))) }()
	schemes := [...]string{"LRU", "RRIP", "GRASP"}
	caches := make([]*cache.Cache, 0, len(llcs)*len(schemes))
	consumers := make([]func([]mem.Access), 0, cap(caches)+1)
	for _, llcCfg := range llcs {
		hcfg := s.Cfg.HCfg
		hcfg.LLC = llcCfg
		for _, scheme := range schemes {
			llc, err := sim.NewReplayLLC(sim.Spec{Policy: scheme, HCfg: hcfg}, rec.bounds)
			if err != nil {
				return nil, err
			}
			caches = append(caches, llc)
			consumers = append(consumers, func(accs []mem.Access) {
				for _, a := range accs {
					llc.Access(a)
				}
			})
		}
	}
	blocks := make([]uint64, 0, min(rec.tr.Len(), optTraceCap))
	consumers = append(consumers, func(accs []mem.Access) {
		for _, a := range accs {
			blocks = append(blocks, cache.BlockAddr(a.Addr))
		}
	})
	if err := rec.tr.BroadcastNCtx(ctx, optTraceCap, consumers); err != nil {
		return nil, err
	}
	chain := policy.NextUseChain(blocks)
	out := make([]optDatapoint, len(llcs))
	for i, llcCfg := range llcs {
		if err := trace.ContextErr(ctx); err != nil {
			return nil, err
		}
		c := caches[i*len(schemes):]
		out[i] = optDatapoint{
			lru: c[0].Stats.Misses, rrip: c[1].Stats.Misses, grasp: c[2].Stats.Misses,
			opt: policy.SimulateOPTChain(blocks, chain, llcCfg.Sets(), llcCfg.Ways).Misses,
		}
	}
	return out, nil
}

// optCells returns group g's study cells at every listed LLC geometry,
// claimed at once: the cells this caller leads are computed in ONE pass
// (optPass) over the pair's recording, and nothing is published
// unless the whole pass succeeded.
func (s *Session) optCells(ctx context.Context, g artifactKey, llcs []cache.Config) ([]optDatapoint, error) {
	keys := make([]artifactKey, len(llcs))
	for i, llc := range llcs {
		keys[i] = optKey(g, llc)
	}
	return getEach(ctx, s.art, keys, func(led []int) ([]optDatapoint, []int64, error) {
		rec, err := s.recording(ctx, g)
		if err != nil {
			return nil, nil, err
		}
		cells, err := s.optPass(ctx, rec, pick(llcs, led))
		return cells, nil, err
	})
}

// optColumn returns every pair's study cell at one LLC geometry, keyed
// (app, dataset).
func (s *Session) optColumn(llcCfg cache.Config) (map[[2]string]optDatapoint, error) {
	out := make(map[[2]string]optDatapoint)
	for _, app := range apps.Names() {
		for _, ds := range highSkewNames() {
			g := group(s.dataset(ds), "DBG", app, apps.LayoutMerged)
			dp, err := one(s.optCells(context.Background(), g, []cache.Config{llcCfg}))
			if err != nil {
				return nil, err
			}
			out[[2]string{app, ds}] = dp
		}
	}
	return out, nil
}

func elimPct(misses, lru uint64) float64 {
	if lru == 0 {
		return 0
	}
	return (1 - float64(misses)/float64(lru)) * 100
}

// runFig11 regenerates Fig. 11: the percentage of misses eliminated over
// LRU by RRIP, GRASP and OPT at the baseline LLC size, reported per
// dataset (across apps) and per application (across datasets) as in the
// figure. Paper averages at 16MB: RRIP 15.2%, GRASP 19.7%, OPT 34.3%.
func runFig11(s *Session, w io.Writer) error {
	data, err := s.optColumn(studyLLC(s.Cfg.HCfg.LLC, 1))
	if err != nil {
		return err
	}
	t := stats.NewTable("Group", "RRIP", "GRASP", "OPT")
	addGroup := func(label string, keys [][2]string) {
		var r, g, o []float64
		for _, k := range keys {
			dp := data[k]
			r = append(r, elimPct(dp.rrip, dp.lru))
			g = append(g, elimPct(dp.grasp, dp.lru))
			o = append(o, elimPct(dp.opt, dp.lru))
		}
		t.AddRowf(label, stats.Mean(r), stats.Mean(g), stats.Mean(o))
	}
	for _, ds := range highSkewNames() {
		var keys [][2]string
		for _, app := range apps.Names() {
			keys = append(keys, [2]string{app, ds})
		}
		addGroup(ds, keys)
	}
	for _, app := range apps.Names() {
		var keys [][2]string
		for _, ds := range highSkewNames() {
			keys = append(keys, [2]string{app, ds})
		}
		addGroup(app, keys)
	}
	// Deterministic iteration order: float summation order must not depend
	// on map traversal, or the printed average could flip at a rounding
	// boundary between runs.
	var all [][2]string
	for _, app := range apps.Names() {
		for _, ds := range highSkewNames() {
			all = append(all, [2]string{app, ds})
		}
	}
	addGroup("avg(all)", all)
	if _, err := fmt.Fprintln(w, "% misses eliminated over LRU"); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, t)
	return err
}

// runTable7 regenerates Table VII: average % misses eliminated over LRU
// for RRIP, GRASP and OPT across LLC sizes. Paper shape: RRIP flat
// (~15-16%) across sizes; GRASP grows with LLC size (15.4% at 1MB to
// 21.2% at 32MB); OPT 27-35%.
func runTable7(s *Session, w io.Writer) error {
	header := []string{"Scheme"}
	for _, e := range optLadder {
		header = append(header, e.label)
	}
	t := stats.NewTable(header...)
	rows := map[string][]float64{"RRIP": nil, "GRASP": nil, "OPT": nil}
	for _, e := range optLadder {
		data, err := s.optColumn(studyLLC(s.Cfg.HCfg.LLC, e.scale))
		if err != nil {
			return err
		}
		var r, g, o []float64
		for _, app := range apps.Names() {
			for _, ds := range highSkewNames() {
				dp := data[[2]string{app, ds}]
				r = append(r, elimPct(dp.rrip, dp.lru))
				g = append(g, elimPct(dp.grasp, dp.lru))
				o = append(o, elimPct(dp.opt, dp.lru))
			}
		}
		rows["RRIP"] = append(rows["RRIP"], stats.Mean(r))
		rows["GRASP"] = append(rows["GRASP"], stats.Mean(g))
		rows["OPT"] = append(rows["OPT"], stats.Mean(o))
	}
	for _, scheme := range []string{"RRIP", "GRASP", "OPT"} {
		cells := []string{scheme}
		for _, v := range rows[scheme] {
			cells = append(cells, fmt.Sprintf("%.1f%%", v))
		}
		t.AddRow(cells...)
	}
	if _, err := fmt.Fprintln(w, "% misses eliminated over LRU by LLC size (* = paper-scale equivalent)"); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, t)
	return err
}
