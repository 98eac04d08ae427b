package exp

import (
	"maps"

	"grasp/internal/cache"
	"grasp/internal/trace"
)

// TierWork counts one tier's cells and the decode fan-outs that computed
// them: the consumers they fed and the accesses they delivered. Only a
// fan-out that completed cleanly counts, and a request the store answered
// computes no cell.
type TierWork struct{ Cells, FanOuts, Consumers, Decoded uint64 }

// add counts one fan-out that completed cleanly.
func (w *TierWork) add(cells, consumers int, decoded int64) {
	w.Cells, w.FanOuts = w.Cells+uint64(cells), w.FanOuts+1
	w.Consumers, w.Decoded = w.Consumers+uint64(consumers), w.Decoded+uint64(decoded)
}

// LLCWork is what one policy's simulated LLCs did, over every tier.
type LLCWork struct{ Accesses, Misses uint64 }

// Ledger counts the work a Store's sessions did (DESIGN.md Sec. 7). Each
// counter is monotonic and is added to where a session finishes the work,
// never per access, and only when the work succeeded. The counts are a
// function of the requests made, not of how they were scheduled: a request
// that finds its artifact settled or in flight is one Served count either
// way, so a sweep's ledger is the same at every GOMAXPROCS.
type Ledger struct {
	Loads        uint64 // graphs generated or parsed
	Reorders     uint64 // workloads prepared: a loaded graph reordered
	Recordings   uint64 // applications recorded
	Recorded     uint64 // the LLC accesses those recordings hold
	Subsequences uint64 // sampled subsequences built
	Served       uint64 // requests answered by a settled or in-flight artifact
	// Full, Sampled, Corun and OPT are the cell tiers: full-fidelity
	// results, set-sampled estimates, co-run results, OPT study cells.
	Full, Sampled, Corun, OPT TierWork
	Skip                      trace.SkipReport   // the sampled tier's masked decodes
	LLC                       map[string]LLCWork // by policy name; OPT is Belady's
}

// llc adds one simulated LLC's accesses and misses under its policy.
func (l *Ledger) llc(policy string, st cache.Stats) {
	if l.LLC == nil {
		l.LLC = make(map[string]LLCWork)
	}
	w := l.LLC[policy]
	l.LLC[policy] = LLCWork{w.Accesses + st.Accesses(), w.Misses + st.Misses}
}

// FanOuts returns the fan-outs of every tier and the consumers they fed.
func (l Ledger) FanOuts() (runs, consumers uint64) {
	for _, w := range [...]TierWork{l.Full, l.Sampled, l.Corun, l.OPT} {
		runs, consumers = runs+w.FanOuts, consumers+w.Consumers
	}
	return runs, consumers
}

// tally applies f to the store's ledger under the store's lock.
func (a *Store) tally(f func(l *Ledger)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f(&a.work)
}

// Ledger returns a copy of the work the store's sessions have done, at
// every scale: one per graspd node, one per graspsim or bench session.
func (a *Store) Ledger() Ledger {
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.work
	l.LLC = maps.Clone(l.LLC)
	return l
}
