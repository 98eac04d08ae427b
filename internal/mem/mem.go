// Package mem models the application's virtual address space for the
// trace-driven cache simulation: data structures (Vertex Array, Edge Array,
// Property Arrays, frontiers) are registered as Arrays at virtual base
// addresses, and algorithm execution emits a stream of Access events that
// the cache hierarchy consumes.
//
// Each static load/store site in an application kernel is given a stable
// synthetic PC, reproducing the property the paper highlights in Sec. II-F:
// a single PC accesses hot and cold vertices alike, which defeats PC-based
// reuse correlation.
package mem

import "fmt"

// Hint is the 2-bit reuse hint GRASP forwards to the LLC with each cache
// request (Sec. III-B of the paper).
type Hint uint8

// Reuse hints. Default is what non-graph applications (ABRs unset) send.
const (
	HintDefault Hint = iota
	HintHigh
	HintModerate
	HintLow
)

// String implements fmt.Stringer.
func (h Hint) String() string {
	switch h {
	case HintHigh:
		return "High-Reuse"
	case HintModerate:
		return "Moderate-Reuse"
	case HintLow:
		return "Low-Reuse"
	default:
		return "Default"
	}
}

// Access is one memory access event.
type Access struct {
	Addr     uint64 // virtual byte address
	PC       uint32 // synthetic program counter of the access site
	Hint     Hint   // reuse hint attached by GRASP classification (LLC only)
	Write    bool
	Property bool // true if the access falls within a Property Array (Fig. 2 accounting)
}

// Sink consumes a stream of accesses.
type Sink interface {
	Access(a Access)
}

// CountingSink counts accesses; used by tests.
type CountingSink struct {
	Reads, Writes uint64
	PropertyN     uint64
}

// Access implements Sink.
func (c *CountingSink) Access(a Access) {
	if a.Write {
		c.Writes++
	} else {
		c.Reads++
	}
	if a.Property {
		c.PropertyN++
	}
}

// Recorder stores the full access stream in memory; used by tests.
type Recorder struct {
	Trace []Access
}

// Access implements Sink.
func (r *Recorder) Access(a Access) { r.Trace = append(r.Trace, a) }

// Array is a contiguous data structure registered in the address space.
type Array struct {
	Name     string
	Base     uint64 // virtual base address, block-aligned
	ElemSize uint64 // bytes per element
	Len      uint64 // number of elements
	Property bool   // Property Arrays get ABR pairs and Fig. 2 accounting
}

// Addr returns the byte address of element i (offset 0 within the element).
func (ar *Array) Addr(i uint64) uint64 { return ar.Base + i*ar.ElemSize }

// AddrOff returns the byte address of element i at byte offset off within
// the element (for merged multi-field property elements).
func (ar *Array) AddrOff(i, off uint64) uint64 { return ar.Base + i*ar.ElemSize + off }

// End returns the first byte address past the array.
func (ar *Array) End() uint64 { return ar.Base + ar.Len*ar.ElemSize }

// SizeBytes returns the array footprint in bytes.
func (ar *Array) SizeBytes() uint64 { return ar.Len * ar.ElemSize }

// AddressSpace assigns virtual base addresses to arrays. Arrays are placed
// sequentially with alignment and a guard gap so that distinct arrays never
// share a cache block or a SHiP memory region.
type AddressSpace struct {
	next   uint64
	arrays []*Array
}

const (
	baseAddr  = 0x1000_0000
	alignBits = 16 // 64KB alignment: > any cache block and SHiP region
)

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: baseAddr}
}

// Register places an array and returns it.
func (as *AddressSpace) Register(name string, elemSize, n uint64, property bool) *Array {
	ar := &Array{Name: name, Base: as.next, ElemSize: elemSize, Len: n, Property: property}
	size := ar.SizeBytes()
	align := uint64(1) << alignBits
	as.next += (size + 2*align - 1) &^ (align - 1) // size + guard, aligned
	as.arrays = append(as.arrays, ar)
	return ar
}

// Arrays returns all registered arrays in registration order.
func (as *AddressSpace) Arrays() []*Array { return as.arrays }

// Find returns the array containing addr, or nil.
func (as *AddressSpace) Find(addr uint64) *Array {
	for _, ar := range as.arrays {
		if addr >= ar.Base && addr < ar.End() {
			return ar
		}
	}
	return nil
}

// String summarizes the layout.
func (as *AddressSpace) String() string {
	s := "AddressSpace{\n"
	for _, ar := range as.arrays {
		s += fmt.Sprintf("  %-16s base=%#x elem=%dB len=%d (%d KB) property=%v\n",
			ar.Name, ar.Base, ar.ElemSize, ar.Len, ar.SizeBytes()/1024, ar.Property)
	}
	return s + "}"
}

// PC returns a stable synthetic program counter for a named static access
// site (FNV-1a over the site name). Distinct sites get distinct PCs with
// overwhelming probability; the same site always gets the same PC.
func PC(site string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(site); i++ {
		h ^= uint32(site[i])
		h *= prime32
	}
	return h
}
