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
)

// optTraceCap bounds the LLC trace length per datapoint (the paper uses
// traces of up to 2 billion accesses; scaled down with everything else).
const optTraceCap = 8_000_000

// optDatapoint holds the replayed miss counts of one (app, dataset) trace
// at one LLC size.
type optDatapoint struct {
	lru, rrip, grasp, opt uint64
}

// runOPTStudy obtains the shared LLC recording of every (app, high-skew
// dataset) pair under DBG reordering and evaluates its bounded prefix
// under LRU, RRIP and GRASP plus Belady's OPT at the given LLC size. Each
// pair rides the broadcast decoder: ONE decode pass over the capped
// prefix feeds the three policy LLCs and the block-address stream that
// OPT consumes, instead of four independent decodes (DESIGN.md Sec. 12).
// Pairs fan out over the worker pool; results land in a keyed map, so the
// consuming experiments iterate them in deterministic order regardless of
// completion order.
func runOPTStudy(s *Session, llcCfg cache.Config) (map[[2]string]optDatapoint, error) {
	rripInfo, _ := sim.PolicyByName("RRIP")
	graspInfo, _ := sim.PolicyByName("GRASP")
	lruInfo, _ := sim.PolicyByName("LRU")
	type pair struct{ app, ds string }
	var pairs []pair
	for _, app := range apps.Names() {
		for _, ds := range highSkewNames() {
			pairs = append(pairs, pair{app, ds})
		}
	}
	dps := make([]optDatapoint, len(pairs))
	errs := make([]error, len(pairs))
	forEachParallel(len(pairs), func(i int) {
		app, ds := pairs[i].app, pairs[i].ds
		g := group(s.dataset(ds), "DBG", app, apps.LayoutMerged)
		errs[i] = s.withRecordings(context.Background(), true, []artifactKey{g}, func(recs []recording) error {
			rec := recs[0]
			replays := []struct {
				misses *uint64
				pinfo  sim.PolicyInfo
				abrs   [][2]uint64
			}{
				{&dps[i].lru, lruInfo, nil},
				{&dps[i].rrip, rripInfo, nil},
				{&dps[i].grasp, graspInfo, rec.bounds},
			}
			llcs := make([]*cache.Cache, len(replays))
			consumers := make([]func([]mem.Access), 0, len(replays)+1)
			for j, rp := range replays {
				llc, err := sim.NewReplayLLC(llcCfg, rp.pinfo, rp.abrs)
				if err != nil {
					return err
				}
				llcs[j] = llc
				consumers = append(consumers, func(accs []mem.Access) {
					for _, a := range accs {
						llc.Access(a)
					}
				})
			}
			n := rec.tr.Len()
			if n > optTraceCap {
				n = optTraceCap
			}
			blocks := make([]uint64, 0, n)
			consumers = append(consumers, func(accs []mem.Access) {
				for _, a := range accs {
					blocks = append(blocks, cache.BlockAddr(a.Addr))
				}
			})
			start := time.Now()
			err := rec.tr.BroadcastNCtx(context.Background(), optTraceCap, consumers)
			s.phase.replay.Add(int64(time.Since(start)))
			if err != nil {
				return err
			}
			for j, rp := range replays {
				*rp.misses = llcs[j].Stats.Misses
			}
			dps[i].opt = policy.SimulateOPT(blocks, llcCfg.Sets(), llcCfg.Ways).Misses
			return nil
		})
	})
	out := make(map[[2]string]optDatapoint, len(pairs))
	for i, p := range pairs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[[2]string{p.app, p.ds}] = dps[i]
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
	data, err := runOPTStudy(s, s.Cfg.HCfg.LLC)
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

// table7Sizes returns the LLC size sweep: the scaled analogues of the
// paper's 1, 4, 8, 16 and 32 MB (we run at 1/64 scale by default, so
// 16KB..512KB with the 256KB point matching the main evaluation).
func table7Sizes(base cache.Config) []cache.Config {
	fracs := []struct {
		label string
		mul   float64
	}{{"1MB*", 1.0 / 16}, {"4MB*", 0.25}, {"8MB*", 0.5}, {"16MB*", 1}, {"32MB*", 2}}
	var out []cache.Config
	for _, f := range fracs {
		sz := uint64(float64(base.SizeBytes) * f.mul)
		min := uint64(base.Ways) * cache.BlockSize * 2
		if sz < min {
			sz = min
		}
		out = append(out, cache.Config{SizeBytes: sz, Ways: base.Ways})
	}
	return out
}

// runTable7 regenerates Table VII: average % misses eliminated over LRU
// for RRIP, GRASP and OPT across LLC sizes. Paper shape: RRIP flat
// (~15-16%) across sizes; GRASP grows with LLC size (15.4% at 1MB to
// 21.2% at 32MB); OPT 27-35%.
func runTable7(s *Session, w io.Writer) error {
	sizes := table7Sizes(s.Cfg.HCfg.LLC)
	labels := []string{"1MB*", "4MB*", "8MB*", "16MB*", "32MB*"}
	t := stats.NewTable(append([]string{"Scheme"}, labels...)...)
	rows := map[string][]float64{"RRIP": nil, "GRASP": nil, "OPT": nil}
	for _, llcCfg := range sizes {
		data, err := runOPTStudy(s, llcCfg)
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
