package cache

import (
	"fmt"

	"grasp/internal/mem"
)

// HierarchyConfig describes the simulated three-level hierarchy. Defaults
// follow DESIGN.md Sec. 5: the paper's 32KB L1 / 256KB L2 / 16MB LLC scaled
// so the hot-vertex-footprint-to-LLC ratio is preserved on the scaled
// datasets.
type HierarchyConfig struct {
	L1  Config
	L2  Config
	LLC Config

	// Latencies in core cycles, used by the memory-time model
	// (paper Table VI: L1 4cy, L2 6cy, LLC ~10cy bank + NOC, DRAM 50ns).
	L1Latency, L2Latency, LLCLatency, MemLatency uint64

	// MLP is the effective memory-level parallelism of the OoO core: the
	// divisor applied to stall cycles beyond the L1, modeling overlap of
	// outstanding misses. 1 = fully serialized.
	MLP float64
}

// DefaultHierarchyConfig returns the reproduction-scale configuration,
// calibrated so the capacity ratios that drive the paper's results carry
// over to the scaled datasets (131072 vertices):
//
//   - LLC (64KB) vs merged Property Array (2MB): 1:32, matching the
//     paper's tw (16MB vs ~500MB). The LLC-sized High Reuse Region covers
//     ~3% of vertices, as at paper scale.
//   - hot-vertex footprint (~4x LLC): pinning cannot hold all hot vertices,
//     exactly the regime of Sec. II-F(3).
//   - frontier flag arrays (1B/vertex = 2x LLC) do not fit in the LLC,
//     as at paper scale.
//   - the L2 (16KB) is sized like the paper's aggregate per-core L2s
//     (8 x 256KB = 2MB) relative to the hot frontier-flag footprint
//     (~2MB there, ~16KB here): the dense 1B-per-vertex flag arrays are
//     filtered before the LLC, which keeps the Property Arrays' share of
//     LLC accesses at the paper's 78-94% (Fig. 2).
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:         Config{SizeBytes: 4 << 10, Ways: 8},
		L2:         Config{SizeBytes: 16 << 10, Ways: 8},
		LLC:        Config{SizeBytes: 64 << 10, Ways: 16},
		L1Latency:  4,
		L2Latency:  6,
		LLCLatency: 10,
		MemLatency: 133, // 50ns at 2.66GHz
		MLP:        4,
	}
}

// Hierarchy is the simulated L1 -> L2 -> LLC cache hierarchy. It is a
// mem.Sink: applications emit their access stream directly into it.
type Hierarchy struct {
	cfg HierarchyConfig
	UpperLevels
	LLC *Cache
}

// NewHierarchy builds a hierarchy with LRU L1/L2 filters and the given LLC
// policy. The classifier (may be nil) is installed at the LLC, matching the
// paper's placement of GRASP's classification logic (Fig. 4).
func NewHierarchy(cfg HierarchyConfig, llcPolicy Policy, cl Classifier) (*Hierarchy, error) {
	upper, err := NewUpperLevels(cfg)
	if err != nil {
		return nil, err
	}
	llc, err := New(cfg.LLC, llcPolicy)
	if err != nil {
		return nil, fmt.Errorf("LLC: %w", err)
	}
	llc.SetClassifier(cl)
	return &Hierarchy{cfg: cfg, UpperLevels: upper, LLC: llc}, nil
}

// Access implements mem.Sink: the access walks down the hierarchy until it
// hits. Inclusive fill on the way back is modeled implicitly (each level
// allocates on miss).
func (h *Hierarchy) Access(a mem.Access) {
	if h.Filter(a) {
		return
	}
	h.LLC.Access(a)
}

// MemoryCycles evaluates the analytic memory-time model over the observed
// hit/miss counts: every access pays the L1 latency; L1 misses add the L2
// latency, and so on, with stalls beyond the L1 divided by the MLP factor
// to model out-of-order overlap. The absolute number is not meaningful —
// only ratios between schemes are reported (speed-ups), as in the paper.
func (h *Hierarchy) MemoryCycles() float64 {
	return MemoryCyclesOf(h.cfg, h.L1.Stats, h.L2.Stats, h.LLC.Stats)
}

// MemoryCyclesOf evaluates the memory-time model over per-level hit/miss
// counts gathered elsewhere — the replay path combines a recording's L1/L2
// stats with a freshly replayed LLC's and must price them identically to a
// live Hierarchy.
func MemoryCyclesOf(cfg HierarchyConfig, l1, l2, llc Stats) float64 {
	return MemoryCyclesEst(cfg, l1, l2, float64(llc.Misses))
}

// MemoryCyclesEst is MemoryCyclesOf with a fractional LLC miss count: the
// set-sampled replay path prices its extrapolated miss estimate through
// the exact same model, so sampled and full cycle numbers stay comparable.
func MemoryCyclesEst(cfg HierarchyConfig, l1, l2 Stats, llcMisses float64) float64 {
	stall := float64(l1.Misses)*float64(cfg.L2Latency) +
		float64(l2.Misses)*float64(cfg.LLCLatency) +
		llcMisses*float64(cfg.MemLatency)
	mlp := cfg.MLP
	if mlp <= 0 {
		mlp = 1
	}
	return float64(l1.Accesses())*float64(cfg.L1Latency) + stall/mlp
}
