package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddressSpaceLayout(t *testing.T) {
	as := NewAddressSpace()
	a := as.Register("a", 8, 1000, true)
	b := as.Register("b", 4, 500, false)
	if a.Base%64 != 0 || b.Base%64 != 0 {
		t.Fatal("arrays must be block-aligned")
	}
	if b.Base < a.End() {
		t.Fatal("arrays overlap")
	}
	// Guard gap: arrays must not share a 16KB SHiP region.
	if a.End()>>14 == b.Base>>14 {
		t.Fatal("arrays share a 16KB region")
	}
	if got := as.Find(a.Addr(999)); got != a {
		t.Fatal("Find failed for last element of a")
	}
	if got := as.Find(a.End()); got == a {
		t.Fatal("Find must exclude End()")
	}
	if as.Find(0) != nil {
		t.Fatal("Find(0) should be nil")
	}
}

func TestArrayAddressing(t *testing.T) {
	as := NewAddressSpace()
	a := as.Register("p", 16, 100, true)
	if a.Addr(0) != a.Base {
		t.Fatal("Addr(0) != Base")
	}
	if a.Addr(3) != a.Base+48 {
		t.Fatal("Addr(3) wrong")
	}
	if a.AddrOff(3, 8) != a.Base+56 {
		t.Fatal("AddrOff wrong")
	}
	if a.SizeBytes() != 1600 {
		t.Fatal("SizeBytes wrong")
	}
}

func TestSinks(t *testing.T) {
	var c CountingSink
	c.Access(Access{Addr: 1, Write: false, Property: true})
	c.Access(Access{Addr: 2, Write: true})
	if c.Reads != 1 || c.Writes != 1 || c.PropertyN != 1 {
		t.Fatalf("counting sink wrong: %+v", c)
	}
	var r Recorder
	r.Access(Access{Addr: 7})
	if len(r.Trace) != 1 || r.Trace[0].Addr != 7 {
		t.Fatal("recorder wrong")
	}
}

func TestPCStable(t *testing.T) {
	if PC("pr.load.contrib") != PC("pr.load.contrib") {
		t.Fatal("PC not stable")
	}
	if PC("a") == PC("b") {
		t.Fatal("PC collision on trivially distinct sites")
	}
}

func TestHintString(t *testing.T) {
	for h, want := range map[Hint]string{
		HintDefault:  "Default",
		HintHigh:     "High-Reuse",
		HintModerate: "Moderate-Reuse",
		HintLow:      "Low-Reuse",
	} {
		if h.String() != want {
			t.Fatalf("Hint(%d).String() = %q, want %q", h, h.String(), want)
		}
	}
}

func TestAddressSpaceString(t *testing.T) {
	as := NewAddressSpace()
	as.Register("prop", 8, 4, true)
	s := as.String()
	if !strings.Contains(s, "prop") {
		t.Fatalf("String() missing array name: %s", s)
	}
}

// Property: arrays never overlap regardless of registration sizes.
func TestNoOverlapQuick(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := NewAddressSpace()
		var arrs []*Array
		for i, s := range sizes {
			if i > 20 {
				break
			}
			arrs = append(arrs, as.Register("x", 8, uint64(s)+1, i%2 == 0))
		}
		for i := 1; i < len(arrs); i++ {
			if arrs[i].Base < arrs[i-1].End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
