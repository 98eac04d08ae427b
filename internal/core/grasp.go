// Package core implements GRASP, the paper's primary contribution:
// domain-specialized LLC cache management for graph analytics.
//
// GRASP consists of three hardware components (Sec. III):
//
//	A. A software-hardware interface of Address Bound Registers (ABRs), one
//	   pair per Property Array, populated by the graph framework at startup
//	   with the array's virtual address bounds (ABRs type).
//	B. Classification logic that labels each LLC access High-Reuse,
//	   Moderate-Reuse or Low-Reuse by comparing its address against the
//	   LLC-sized regions at the start of each Property Array (Classify).
//	C. Specialized insertion and hit-promotion policies layered on an
//	   unmodified RRIP eviction policy (Policy, per Table II).
package core

import (
	"fmt"

	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/policy"
)

// ABR is one Address Bound Register pair delimiting a Property Array
// [Start, End) in virtual address space, with the derived High and
// Moderate Reuse Region boundaries (Fig. 3).
type ABR struct {
	Start, End uint64
	// highEnd/modEnd are precomputed region boundaries: High Reuse Region
	// is [Start, highEnd), Moderate Reuse Region is [highEnd, modEnd).
	highEnd, modEnd uint64
}

// ABRs models the register file plus classification logic that sits beside
// the TLB (Fig. 4). It implements cache.Classifier. With no registered
// pairs every access classifies as Default, disabling the specialized
// management — the hardware's behaviour for non-graph applications.
type ABRs struct {
	llcBytes    uint64
	regionScale float64
	pairs       []ABR
}

// NewABRs creates the register file for an LLC of the given capacity.
func NewABRs(llcBytes uint64) *ABRs {
	return &ABRs{llcBytes: llcBytes, regionScale: 1}
}

// SetRegionScale overrides the High/Moderate Reuse Region sizing: regions
// become scale x LLC-size (divided by the number of Property Arrays). The
// paper's design point is scale 1 — "an LLC-sized memory region"
// (Sec. III-B); the ablation experiment sweeps this knob to show why.
func (r *ABRs) SetRegionScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	r.regionScale = scale
	if len(r.pairs) > 0 {
		r.recompute()
	}
}

// SetBounds programs one ABR pair with a Property Array's bounds, as the
// graph framework does at application start-up. Region sizes are
// recomputed: with k Property Arrays, each array's High and Moderate Reuse
// Regions are LLC/k bytes (Sec. III-B, "GRASP divides LLC-size by the
// number of Property Arrays").
func (r *ABRs) SetBounds(start, end uint64) error {
	if end < start {
		return fmt.Errorf("core: ABR bounds reversed: [%#x, %#x)", start, end)
	}
	r.pairs = append(r.pairs, ABR{Start: start, End: end})
	r.recompute()
	return nil
}

// SetArray programs an ABR pair from a registered array.
func (r *ABRs) SetArray(a *mem.Array) error { return r.SetBounds(a.Base, a.End()) }

// Reset clears all pairs (application context switch).
func (r *ABRs) Reset() { r.pairs = nil }

// NumPairs returns the number of programmed ABR pairs.
func (r *ABRs) NumPairs() int { return len(r.pairs) }

// Pairs returns a copy of the programmed registers (tests/inspection).
func (r *ABRs) Pairs() []ABR { return append([]ABR(nil), r.pairs...) }

func (r *ABRs) recompute() {
	region := uint64(float64(r.llcBytes) * r.regionScale / float64(len(r.pairs)))
	for i := range r.pairs {
		p := &r.pairs[i]
		p.highEnd = p.Start + region
		if p.highEnd > p.End {
			p.highEnd = p.End
		}
		p.modEnd = p.Start + 2*region
		if p.modEnd > p.End {
			p.modEnd = p.End
		}
	}
}

// Classify implements cache.Classifier: simple bound comparisons, exactly
// the hardware logic of Sec. III-B. For graph applications (pairs set),
// everything outside the High/Moderate regions — including the long cold
// tail of the Property Arrays, the Vertex and Edge Arrays and frontiers —
// is Low-Reuse. With no pairs set, everything is Default.
func (r *ABRs) Classify(addr uint64) mem.Hint {
	if len(r.pairs) == 0 {
		return mem.HintDefault
	}
	for i := range r.pairs {
		p := &r.pairs[i]
		if addr < p.Start || addr >= p.End {
			continue
		}
		if addr < p.highEnd {
			return mem.HintHigh
		}
		if addr < p.modEnd {
			return mem.HintModerate
		}
		return mem.HintLow
	}
	return mem.HintLow
}

var _ cache.Classifier = (*ABRs)(nil)

// Mode selects the GRASP feature set, matching the Fig. 7 ablation.
type Mode int

// GRASP modes, each adding a feature on top of the previous one.
const (
	// ModeHintsOnly is "RRIP+Hints": RRIP whose two insertion positions are
	// steered by software hints instead of probabilistically — High-Reuse
	// blocks insert near LRU (RRPV max-1), everything else at LRU (max).
	ModeHintsOnly Mode = iota
	// ModeInsertionOnly applies GRASP's full insertion policy (Table II)
	// but leaves RRIP's hit promotion unchanged (every hit -> RRPV 0).
	ModeInsertionOnly
	// ModeFull is the complete GRASP design: specialized insertion plus the
	// hit-promotion policy (High -> 0; Moderate/Low decrement gradually).
	ModeFull
)

// Policy is GRASP's specialized cache policy over an unmodified DRRIP base
// (Table II). Eviction is the base scheme's — GRASP deliberately does not
// consult hints at replacement time, which both keeps stale High-Reuse
// blocks evictable and avoids storing the hint in LLC metadata.
type Policy struct {
	base *policy.DRRIP
	mode Mode
}

// NewPolicy creates a GRASP policy with the given feature set.
func NewPolicy(sets, ways uint32, mode Mode) *Policy {
	return &Policy{base: policy.NewDRRIP(sets, ways), mode: mode}
}

var _ cache.Policy = (*Policy)(nil)

// OnHit implements cache.Policy (Table II, Hit Policy column).
func (p *Policy) OnHit(set, way uint32, a mem.Access) {
	meta := p.base.Meta()
	switch a.Hint {
	case mem.HintHigh:
		meta.Set(set, way, policy.RRPVNear)
	case mem.HintModerate, mem.HintLow:
		if p.mode == ModeFull {
			// Gradual promotion toward MRU on every hit.
			if v := meta.Get(set, way); v > 0 {
				meta.Set(set, way, v-1)
			}
		} else {
			p.base.OnHit(set, way, a) // base RRIP promotion (RRPV = 0)
		}
	default:
		p.base.OnHit(set, way, a)
	}
}

// OnFill implements cache.Policy (Table II, Insertion Policy column).
func (p *Policy) OnFill(set, way uint32, a mem.Access) {
	meta := p.base.Meta()
	if p.mode == ModeHintsOnly {
		// RRIP+Hints: hint-guided choice between RRIP's two insertion
		// positions only.
		switch a.Hint {
		case mem.HintHigh:
			meta.Set(set, way, policy.RRPVLong)
		case mem.HintModerate, mem.HintLow:
			meta.Set(set, way, policy.RRPVMax)
		default:
			p.base.OnFill(set, way, a)
		}
		return
	}
	switch a.Hint {
	case mem.HintHigh:
		meta.Set(set, way, policy.RRPVNear) // MRU position
	case mem.HintModerate:
		meta.Set(set, way, policy.RRPVLong) // near LRU
	case mem.HintLow:
		meta.Set(set, way, policy.RRPVMax) // LRU: immediate candidate
	default:
		p.base.OnFill(set, way, a) // base scheme's dueling insertion
	}
}

// Victim implements cache.Policy: unmodified base eviction (Sec. III-C,
// "Eviction Policy ... is unmodified from the baseline scheme").
func (p *Policy) Victim(set uint32, a mem.Access) (uint32, bool) {
	return p.base.Victim(set, a)
}

// OnEvict implements cache.Policy.
func (p *Policy) OnEvict(set, way uint32) { p.base.OnEvict(set, way) }
