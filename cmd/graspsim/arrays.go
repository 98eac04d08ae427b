package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/exp"
	"grasp/internal/jobs"
	"grasp/internal/ligra"
	"grasp/internal/mem"
	"grasp/internal/sim"
)

// arrayTally attributes LLC traffic to the data structure it touches — the
// per-array breakdown that motivates GRASP (Sec. II-C of the paper). A
// recorded stream drives llc, and each access counts against the array of
// its byte address (which the trace codec restores exactly); the last
// resolved array short-circuits the address-space scan.
type arrayTally struct {
	llc       *cache.Cache
	as        *mem.AddressSpace
	last      *mem.Array
	acc, miss map[string]uint64
}

// consume is the tally's broadcast consumer: every access reaches the LLC
// and is counted against its array.
func (s *arrayTally) consume(accs []mem.Access) {
	for _, a := range accs {
		name := "(unmapped)"
		if s.last != nil && a.Addr >= s.last.Base && a.Addr < s.last.End() {
			name = s.last.Name
		} else if ar := s.as.Find(a.Addr); ar != nil {
			s.last = ar
			name = ar.Name
		}
		s.acc[name]++
		if !s.llc.Access(a) {
			s.miss[name]++
		}
	}
}

// tallyArrays replays the session's recording of spec's group through an
// arrayTally over a fresh LLC of the job's policy and geometry. Every app
// registers its arrays in its constructor, so a fresh graph wrapper's
// address space is the recording run's.
func tallyArrays(ctx context.Context, s *exp.Session, spec jobs.Spec, wl *sim.Workload) (*arrayTally, error) {
	fg := ligra.NewGraph(wl.Graph)
	if _, err := apps.New(spec.App, fg, apps.LayoutMerged); err != nil {
		return nil, err
	}
	tr, bounds, err := s.Recording(ctx, spec.Graph, spec.Reorder, spec.App, apps.LayoutMerged)
	if err != nil {
		return nil, err
	}
	llc, err := sim.NewReplayLLC(sim.Spec{Policy: spec.Policy, HCfg: s.Cfg.HCfg}, bounds)
	if err != nil {
		return nil, err
	}
	t := &arrayTally{as: fg.AS, llc: llc, acc: map[string]uint64{}, miss: map[string]uint64{}}
	return t, tr.BroadcastNCtx(ctx, 0, []func([]mem.Access){t.consume})
}

// print renders the Property Array's share of the LLC traffic and the
// per-array breakdown, busiest array first.
func (s *arrayTally) print(w io.Writer, r sim.Result) {
	if r.LLC.Accesses() > 0 {
		fmt.Fprintf(w, "Property Array share of LLC accesses: %.1f%% (misses: %.1f%%)\n",
			100*float64(r.LLC.PropHits+r.LLC.PropMisses)/float64(r.LLC.Accesses()),
			100*float64(r.LLC.PropMisses)/float64(r.LLC.Misses+1))
	}
	fmt.Fprintln(w, "\nper-array LLC breakdown:")
	names := make([]string, 0, len(s.acc))
	for n := range s.acc {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if s.acc[names[i]] != s.acc[names[j]] {
			return s.acc[names[i]] > s.acc[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s acc=%9d miss=%9d (%.0f%%)\n",
			n, s.acc[n], s.miss[n], 100*float64(s.miss[n])/float64(s.acc[n]))
	}
}
