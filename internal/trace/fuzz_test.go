package trace

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

// FuzzCodecRoundTrip decodes arbitrary bytes into an access stream,
// encodes it through the recorder (alternating the resident and
// all-spilled layouts by a byte of the input) and asserts the decode
// reproduces the stream exactly. The codec must be total: any address,
// PC and flag combination round-trips, including delta overflows and PC
// dictionary exhaustion.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 13*8)
	for i := 0; i < 8; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(i)<<uint(i*7))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(i)*2654435761)
		rec[12] = byte(i)
		seed = append(seed, rec[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const recSize = 13 // 8B addr + 4B pc + 1B flags
		n := len(data) / recSize
		if n > 1<<16 {
			n = 1 << 16
		}
		accs := make([]mem.Access, n)
		for i := range accs {
			rec := data[i*recSize:]
			accs[i] = mem.Access{
				Addr:     binary.LittleEndian.Uint64(rec[:8]),
				PC:       binary.LittleEndian.Uint32(rec[8:12]),
				Write:    rec[12]&1 != 0,
				Property: rec[12]&2 != 0,
			}
		}
		r := NewRawRecorder()
		if n > 0 && data[0]&4 != 0 {
			r.SetMemoryOverride(-1) // exercise the spill layout too
		}
		for _, a := range accs {
			r.Record(a)
		}
		tr, err := r.Finish(time.Duration(0))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Release()
		if tr.Len() != int64(n) {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		got, err := tr.Accesses(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range accs {
			if got[i] != a {
				t.Fatalf("access %d: got %+v, want %+v", i, got[i], a)
			}
		}
	})
}

// FuzzMaskedDecode drives the masked (in-loop pruning) decode with hostile
// recordings across geometries from 2 to 512 sets: arbitrary bytes become
// an access stream (13-byte records as in FuzzCodecRoundTrip; an input
// byte toggles the spill layout, picks the set count and the sampling
// divisor), decoded masked and reconciled against a filter applied after
// the independent reference decode. The conservative mask must NEVER
// drop a sampled-set access — delivered accesses, their order, and the
// prune/deliver accounting must match the reference exactly for any
// address pattern, including delta overflows, escape records straddling
// seal-early boundaries, and addresses engineered to alias one bucket.
func FuzzMaskedDecode(f *testing.F) {
	f.Add([]byte{})
	// Seed one stream clustered in a single congruence class (everything
	// prunes for most masks), one striding every class with spill + a
	// large divisor, and one hammering escape records.
	cluster := make([]byte, 0, 13*64)
	for i := 0; i < 64; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[:8], 7<<6|uint64(i)<<14)
		rec[12] = byte(i) & 3
		cluster = append(cluster, rec[:]...)
	}
	f.Add(cluster)
	stride := make([]byte, 0, 13*64)
	for i := 0; i < 64; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(i)*64+uint64(i)<<41)
		rec[12] = byte(i&3) | 4
		stride = append(stride, rec[:]...)
	}
	f.Add(stride)
	escapes := make([]byte, 0, 13*32)
	for i := 0; i < 32; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(i)<<58|uint64(i)<<6)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(i)*2654435761)
		rec[12] = byte(i) & 7
		escapes = append(escapes, rec[:]...)
	}
	f.Add(escapes)
	f.Fuzz(func(t *testing.T, data []byte) {
		const recSize = 13
		n := len(data) / recSize
		if n > 1<<14 {
			n = 1 << 14
		}
		accs := make([]mem.Access, n)
		for i := range accs {
			rec := data[i*recSize:]
			accs[i] = mem.Access{
				Addr:     binary.LittleEndian.Uint64(rec[:8]),
				PC:       binary.LittleEndian.Uint32(rec[8:12]),
				Write:    rec[12]&1 != 0,
				Property: rec[12]&2 != 0,
			}
		}
		r := NewRawRecorder()
		var sel byte
		if n > 0 {
			sel = data[0]
		}
		if sel&4 != 0 {
			r.SetMemoryOverride(-1)
		}
		for _, a := range accs {
			r.Record(a)
		}
		tr, err := r.Finish(time.Duration(0))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Release()
		// Geometries from 2 sets (every class aliases heavily) up to 512
		// (beyond PresenceBuckets, where the mask over-approximates).
		sets := uint32(2) << (sel >> 6 * 3) // 2, 16, 128, 1024... capped below
		if sets > 512 {
			sets = 512
		}
		sampleK := uint32(1) << (sel >> 3 & 7) // 1..128
		sampled := SampledSets(sets, sampleK)
		mask := SampledSetsMask(sets, sampled)
		inSample := make(map[uint32]bool)
		for _, s := range sampled {
			inSample[s] = true
		}
		// Reference: filter-after-decode — the mask applied to the stream
		// the independent decoder (Accesses) yields. The mask can admit
		// more than the sampled sets when sets > PresenceBuckets, so the
		// reference applies the same mask — and separately asserts the mask
		// never excludes a sampled-set block (the no-false-negative
		// property pruning relies on).
		decoded, err := tr.Accesses(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(decoded) != len(accs) {
			t.Fatalf("reference decode yielded %d accesses, recorded %d", len(decoded), len(accs))
		}
		var want []mem.Access
		for _, a := range decoded {
			block := cache.BlockAddr(a.Addr)
			if inSample[uint32(block&uint64(sets-1))] && !mask.test(block) {
				t.Fatalf("block %#x maps to a sampled set but the mask excludes it", block)
			}
			if mask.test(block) {
				want = append(want, a)
			}
		}
		got, rep := maskedDecode(t, tr, 0, mask)
		if len(got) != len(want) {
			t.Fatalf("masked decode delivered %d accesses, reference has %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("access %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		if rep.AccessesDelivered != int64(len(want)) {
			t.Fatalf("report delivered %d, reference has %d", rep.AccessesDelivered, len(want))
		}
		if total := rep.AccessesPruned + rep.AccessesDelivered; total != tr.Len() {
			t.Fatalf("report accounts %d accesses, trace has %d", total, tr.Len())
		}
	})
}

// FuzzSetFilterReplay drives the sampled tier's set filter with hostile
// recordings: arbitrary bytes become an access stream (same 13-byte record
// layout as FuzzCodecRoundTrip, spill layout toggled by an input byte),
// which is broadcast through a SetFilter whose divisor also comes from the
// input. The filter must never panic, never index outside the slab ring or
// its counter slots, and its per-set counters must reconcile exactly with
// both a reference count over the raw stream and the wrapped cache's own
// stats — for any address pattern, including delta overflows and addresses
// engineered to alias into one set.
func FuzzSetFilterReplay(f *testing.F) {
	f.Add([]byte{})
	// Seed one stream that hammers a single set (all blocks alias to set 3
	// of 16) and one that strides across every set with spill enabled.
	alias := make([]byte, 0, 13*32)
	for i := 0; i < 32; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[:8], 3<<6|uint64(i)<<14)
		rec[12] = byte(i) & 3
		alias = append(alias, rec[:]...)
	}
	f.Add(alias)
	stride := make([]byte, 0, 13*64)
	for i := 0; i < 64; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(i)*64+uint64(i)<<40)
		rec[12] = byte(i&3) | 4 // bit 2: spill layout
		stride = append(stride, rec[:]...)
	}
	f.Add(stride)
	f.Fuzz(func(t *testing.T, data []byte) {
		const recSize = 13
		n := len(data) / recSize
		if n > 1<<14 {
			n = 1 << 14
		}
		accs := make([]mem.Access, n)
		for i := range accs {
			rec := data[i*recSize:]
			accs[i] = mem.Access{
				Addr:     binary.LittleEndian.Uint64(rec[:8]),
				PC:       binary.LittleEndian.Uint32(rec[8:12]),
				Write:    rec[12]&1 != 0,
				Property: rec[12]&2 != 0,
			}
		}
		r := NewRawRecorder()
		if n > 0 && data[0]&4 != 0 {
			r.SetMemoryOverride(-1)
		}
		for _, a := range accs {
			r.Record(a)
		}
		tr, err := r.Finish(time.Duration(0))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Release()
		cfg := cache.Config{SizeBytes: 16 << 10, Ways: 16} // 16 sets
		llc, err := cache.New(cfg, cache.NewLRU(cfg.Sets(), cfg.Ways))
		if err != nil {
			t.Fatal(err)
		}
		sampleK := uint32(1)
		if n > 0 {
			sampleK = 1 << (data[0] >> 5) // 1..128, beyond set count is legal
		}
		filter, err := NewSetFilter(llc, SampledSets(cfg.Sets(), sampleK))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BroadcastNCtx(context.Background(), 0, []func([]mem.Access){filter.Consume}); err != nil {
			t.Fatal(err)
		}
		// Reference count straight off the raw stream.
		sampled := make(map[uint32]uint64)
		for _, s := range filter.Sets() {
			sampled[s] = 0
		}
		for _, a := range accs {
			set := uint32(cache.BlockAddr(a.Addr) & uint64(cfg.Sets()-1))
			if _, ok := sampled[set]; ok {
				sampled[set]++
			}
		}
		acc, miss := filter.Counts()
		var totalAcc, totalMiss uint64
		for i, s := range filter.Sets() {
			if acc[i] != sampled[s] {
				t.Fatalf("set %d: filter counted %d accesses, reference %d", s, acc[i], sampled[s])
			}
			if miss[i] > acc[i] {
				t.Fatalf("set %d: %d misses exceed %d accesses", s, miss[i], acc[i])
			}
			totalAcc += acc[i]
			totalMiss += miss[i]
		}
		if totalAcc > uint64(tr.Len()) {
			t.Fatalf("filter forwarded %d accesses from a %d-access recording", totalAcc, tr.Len())
		}
		if got := llc.Stats.Accesses(); got != totalAcc {
			t.Fatalf("wrapped cache saw %d accesses, counters say %d", got, totalAcc)
		}
		if llc.Stats.Misses != totalMiss {
			t.Fatalf("wrapped cache recorded %d misses, counters say %d", llc.Stats.Misses, totalMiss)
		}
	})
}
