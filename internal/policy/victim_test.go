package policy

import (
	"fmt"
	"testing"
)

// victimReference is the literal SRRIP search of the CRC reference code:
// scan the ways in index order for a distant RRPV, age every way by one
// when there is none, repeat. RRIPMeta.Victim must choose the same way and
// leave the same row behind for every associativity.
func victimReference(r []uint8) uint32 {
	for {
		for w, v := range r {
			if v == RRPVMax {
				return uint32(w)
			}
		}
		for w := range r {
			r[w]++
		}
	}
}

// checkVictim runs Victim on set 1 of a three-set meta (so a scan that
// strays past its row corrupts a neighbour and is caught) and compares
// victim and post-aging state against the reference.
func checkVictim(t *testing.T, row []uint8) {
	t.Helper()
	ways := uint32(len(row))
	m := NewRRIPMeta(3, ways)
	for w, v := range row {
		m.Set(0, uint32(w), 7-v)
		m.Set(1, uint32(w), v)
		m.Set(2, uint32(w), v/2)
	}
	want := append([]uint8(nil), row...)
	wantWay := victimReference(want)
	if got := m.Victim(1); got != wantWay {
		t.Fatalf("ways=%d row=%v: victim %d, want %d", ways, row, got, wantWay)
	}
	for w := uint32(0); w < ways; w++ {
		if got := m.Get(1, w); got != want[w] {
			t.Fatalf("ways=%d row=%v: way %d aged to %d, want %d", ways, row, w, got, want[w])
		}
		if m.Get(0, w) != 7-row[w] || m.Get(2, w) != row[w]/2 {
			t.Fatalf("ways=%d row=%v: neighbouring set modified at way %d", ways, row, w)
		}
	}
}

// TestRRIPVictimWordParallel: for every associativity 1..32 — the
// eight-ways-per-step scan at 8, 16, 24, 32, the scalar loop elsewhere —
// victim and whole post-aging row equal the literal reference on random
// rows and on the rows most likely to break a byte-parallel trick.
func TestRRIPVictimWordParallel(t *testing.T) {
	rng := newTestRNG(7)
	for ways := 1; ways <= 32; ways++ {
		fill := func(v uint8) []uint8 {
			row := make([]uint8, ways)
			for w := range row {
				row[w] = v
			}
			return row
		}
		for v := uint8(0); v <= RRPVMax; v++ {
			checkVictim(t, fill(v)) // all equal: all 0 ... already distant
		}
		for v := uint8(0); v <= RRPVMax; v++ {
			row := fill(0)
			row[ways-1] = v // the maximum only in the last way
			checkVictim(t, row)
			row = fill(v / 2)
			row[ways/2] = v // ... or only in the middle
			checkVictim(t, row)
		}
		if ways > 8 {
			row := fill(1)
			row[5], row[ways-2] = 4, 4 // the maximum in two words: lowest way wins
			checkVictim(t, row)
			row = fill(2)
			row[ways-1], row[3] = 6, 5 // a near-maximum in an earlier word must not win
			checkVictim(t, row)
		}
		for n := 0; n < 200; n++ {
			row := make([]uint8, ways)
			top := rng.next()%RRPVMax + 1 // skew towards rows whose maximum is below 7
			for w := range row {
				row[w] = uint8(rng.next() % (top + 1))
			}
			checkVictim(t, row)
		}
	}
}

// FuzzRRIPVictim feeds arbitrary rows (clamped to the 3-bit RRPV range,
// any associativity up to 64) through the same comparison.
func FuzzRRIPVictim(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		row := make([]uint8, len(raw))
		for w, b := range raw {
			row[w] = b & RRPVMax
		}
		checkVictim(t, row)
	})
}

// BenchmarkRRIPVictim times the victim search alone on rows as a miss
// finds them: the set's maximum is 7 (left by the previous search and a
// distant fill) or 6 (the previous victim's way refilled at long).
func BenchmarkRRIPVictim(b *testing.B) {
	for _, ways := range []uint32{12, 16} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			const sets = 1024
			m := NewRRIPMeta(sets, ways)
			rng := newTestRNG(1)
			for i := range m.rrpv {
				m.rrpv[i] = uint8(rng.next() % RRPVMax)
			}
			var sink uint32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := uint32(i) % sets
				w := m.Victim(set)
				m.Set(set, w, RRPVLong)
				sink += w
			}
			_ = sink
		})
	}
}
