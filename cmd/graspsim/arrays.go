package main

import (
	"fmt"
	"io"
	"sort"

	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/sim"
)

// arraySink feeds the hierarchy while attributing LLC traffic to the data
// structure it touches — the per-array breakdown that motivates GRASP
// (Sec. II-C of the paper). It is a sim.RunSink wrapper: every access
// still reaches h, so the Result is identical to sim.Run's. Consecutive LLC
// accesses usually fall in the same array, so the last resolved array
// short-circuits the address-space scan.
type arraySink struct {
	h         *cache.Hierarchy
	as        *mem.AddressSpace
	last      *mem.Array
	acc, miss map[string]uint64
}

// Access implements mem.Sink: cache.Hierarchy.Access with the LLC-bound
// accesses counted per array.
func (s *arraySink) Access(a mem.Access) {
	if s.h.Filter(a) {
		return
	}
	name := "(unmapped)"
	if s.last != nil && a.Addr >= s.last.Base && a.Addr < s.last.End() {
		name = s.last.Name
	} else if ar := s.as.Find(a.Addr); ar != nil {
		s.last = ar
		name = ar.Name
	}
	s.acc[name]++
	if !s.h.LLC.Access(a) {
		s.miss[name]++
	}
}

// print renders the Property Array's share of the LLC traffic and the
// per-array breakdown, busiest array first.
func (s *arraySink) print(w io.Writer, r sim.Result) {
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
