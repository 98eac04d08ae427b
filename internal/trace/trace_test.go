package trace

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"grasp/internal/cache"
	"grasp/internal/fail"
	"grasp/internal/mem"
)

// record encodes the accesses through a raw recorder and seals the trace.
func record(t *testing.T, accs []mem.Access) *Trace {
	t.Helper()
	r := NewRawRecorder()
	for _, a := range accs {
		r.Record(a)
	}
	tr, err := r.Finish(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkRoundTrip asserts the decoded stream matches the input exactly.
func checkRoundTrip(t *testing.T, accs []mem.Access, tr *Trace) {
	t.Helper()
	if tr.Len() != int64(len(accs)) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(accs))
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
}

// interesting builds a stream hitting every encoding form: tiny deltas,
// negative deltas, block jumps beyond the wide form's 32-bit range,
// sub-block offsets, flag combinations, and repeated PCs.
func interesting() []mem.Access {
	pcs := []uint32{0, 1, 0xDEADBEEF, 42}
	var accs []mem.Access
	addr := uint64(0x1000_0000)
	for i := 0; i < 5000; i++ {
		a := mem.Access{
			Addr:     addr,
			PC:       pcs[i%len(pcs)],
			Write:    i%3 == 0,
			Property: i%5 == 0,
		}
		accs = append(accs, a)
		switch i % 7 {
		case 0:
			addr += 64
		case 1:
			addr -= 128
		case 2:
			addr += 1 // sub-block motion
		case 3:
			addr += uint64(1) << 52 // forces the escape form
		case 4:
			addr -= uint64(1) << 52
		default:
			addr += 4096
		}
	}
	// Extremes of the address space.
	accs = append(accs,
		mem.Access{Addr: 0},
		mem.Access{Addr: ^uint64(0)},
		mem.Access{Addr: 0, Write: true, Property: true},
	)
	return accs
}

func TestRoundTrip(t *testing.T) {
	accs := interesting()
	checkRoundTrip(t, accs, record(t, accs))
}

// TestChunkBoundaryEscape fills a chunk to one record short of its length
// and then emits escape records: the chunk closes after the first, the
// rest open the next one, and the stream round-trips.
func TestChunkBoundaryEscape(t *testing.T) {
	var accs []mem.Access
	addr := uint64(0)
	for i := 0; i < chunkRecords-1; i++ {
		addr += 64
		accs = append(accs, mem.Access{Addr: addr})
	}
	for i := 0; i < 10; i++ {
		addr += uint64(1) << 60 // escape every time
		accs = append(accs, mem.Access{Addr: addr, PC: uint32(i)})
	}
	tr := record(t, accs)
	checkRoundTrip(t, accs, tr)
	if len(tr.chunks) != 2 {
		t.Fatalf("want 2 chunks, got %d", len(tr.chunks))
	}
}

// TestPCDictionaryOverflow drives more distinct PCs than the dictionary
// holds; the overflow must fall back to escape records losslessly.
func TestPCDictionaryOverflow(t *testing.T) {
	var accs []mem.Access
	for i := 0; i < maxPCs+500; i++ {
		accs = append(accs, mem.Access{Addr: uint64(i) * 64, PC: uint32(i) * 2654435761})
	}
	checkRoundTrip(t, accs, record(t, accs))
}

// recordBytes sums the halfwords a trace's chunks hold, headers excluded.
func recordBytes(tr *Trace) int64 {
	var n int64
	for _, ch := range tr.chunks {
		n += int64(len(ch.hw)) * halfwordBytes
	}
	return n
}

// TestCodecWordForms pins the record forms at their edges: each stream
// round-trips through the reference decoder AND encodes to exactly the
// halfwords its forms cost (short 1, medium 2, wide 3, escape 7), so a
// form that silently widens fails here even when the decode still agrees.
// A record's delta is from its own PC's last address, which starts at 0
// with no flags. The edges: a short delta of -2048 and +2047 4-byte units
// and one step past each, a delta that is not a multiple of 4, the medium
// and wide ranges, a flag change on a PC, dictionary index 7 against 8,
// dictionary overflow, and a PC's first record in a chunk, which decodes
// against the chunk header's state for it and so stays short.
func TestCodecWordForms(t *testing.T) {
	const (
		short  = 1
		medium = 2
		wide   = 3
		escape = 7
	)
	type step struct {
		delta int64 // bytes from the PC's last address
		pc    uint32
		flags uint8 // flagWrite | flagProp
		hw    int   // the halfwords its form takes
	}
	// at builds the access stream for steps.
	at := func(steps []step) (accs []mem.Access, hw int) {
		last := map[uint32]uint64{}
		for _, s := range steps {
			last[s.pc] += uint64(s.delta)
			accs = append(accs, mem.Access{
				Addr:     last[s.pc],
				PC:       s.pc,
				Write:    s.flags&flagWrite != 0,
				Property: s.flags&flagProp != 0,
			})
			hw += s.hw
		}
		return accs, hw
	}
	const base = int64(1) << 30 // a PC's first record jumps here: wide
	pcs := make([]step, 0, 2*(maxPCs+1))
	for i := uint32(0); i < maxPCs+1; i++ {
		form := medium // 1 MiB + 64i from address 0
		switch {
		case i >= shortPCs && i < maxPCs:
			form = wide // index 7 is the last a medium record names
		case i == maxPCs:
			form = escape // the dictionary is full
		}
		pcs = append(pcs, step{1<<20 + 64*int64(i), 1000 + i, flagProp, form})
	}
	for i := uint32(0); i < maxPCs+1; i++ {
		form := short // index 7 is the last a short record names
		switch {
		case i >= shortPCs && i < maxPCs:
			form = wide
		case i == maxPCs:
			form = escape // an unknown PC stays unknown
		}
		pcs = append(pcs, step{4, 1000 + i, flagProp, form})
	}
	for name, steps := range map[string][]step{
		"short": {{base, 3, 0, wide},
			{shortMax * 4, 3, 0, short}, {shortMin * 4, 3, 0, short},
			{(shortMax + 1) * 4, 3, 0, medium}, {(shortMin - 1) * 4, 3, 0, medium},
			{2, 3, 0, medium}, {4, 3, 0, short}, // off the 4-byte grid, then on it again
			{-4, 3, flagWrite, medium}, {-4, 3, flagWrite, short}, // a flag change, then repeated
			{4, 3, flagProp, medium}, {4, 3, flagWrite | flagProp, medium}, {0, 3, flagWrite | flagProp, short}},
		"medium": {{base, 3, flagWrite, wide},
			{mediumMax, 3, flagWrite, medium}, {mediumMin, 3, flagWrite, medium},
			{mediumMax + 1, 3, flagWrite, wide}, {mediumMin - 1, 3, flagWrite, wide}},
		"wide": {{0, 3, 0, short},
			{wideMax, 3, 0, wide}, {wideMin, 3, 0, wide},
			{wideMax + 1, 3, 0, escape}, {wideMin - 1, 3, 0, escape},
			{int64(1) << 56, 3, 0, escape}, {-(int64(1) << 56), 3, 0, escape},
			{4, 3, 0, short}}, // an escape of a dictionary PC moves its state
		"pcs": pcs,
	} {
		accs, hw := at(steps)
		tr := record(t, accs)
		checkRoundTrip(t, accs, tr)
		if got, want := recordBytes(tr), int64(hw)*halfwordBytes; got != want {
			t.Errorf("%s: records take %d bytes, want %d (%d halfwords)", name, got, want, hw)
		}
		if got, want := tr.SizeBytes(), recordBytes(tr); got != want {
			t.Errorf("%s: SizeBytes = %d, want the records' %d (the one chunk's header is empty)", name, got, want)
		}
	}

	// A PC's first record in a chunk: PC 1 appears once, PC 0 fills the
	// rest of the first chunk, and PC 1's next record opens the second
	// chunk 4 bytes on — short, against the header's state for it.
	steps := []step{{base, 0, 0, wide}, {base + 64, 1, 0, wide}}
	for len(steps) < chunkRecords {
		steps = append(steps, step{4, 0, 0, short})
	}
	steps = append(steps, step{4, 1, 0, short}, step{4, 0, 0, short})
	accs, hw := at(steps)
	tr := record(t, accs)
	checkRoundTrip(t, accs, tr)
	if got, want := recordBytes(tr), int64(hw)*halfwordBytes; got != want {
		t.Errorf("chunk seam: records take %d bytes, want %d", got, want)
	}
	if len(tr.chunks) != 2 || len(tr.chunks[0].hw) != chunkRecords+4 || len(tr.chunks[1].hw) != 2 {
		t.Fatalf("chunk seam: %d chunks; want 2 of %d and 2 halfwords", len(tr.chunks), chunkRecords+4)
	}
	if h := tr.chunks[1]; len(h.addr) != 2 || h.addr[1] != accs[1].Addr {
		t.Errorf("chunk seam: second header carries %#x, want PC 1's address %#x", h.addr, accs[1].Addr)
	}
	if got, want := tr.SizeBytes(), recordBytes(tr)+2*siteBytes; got != want {
		t.Errorf("chunk seam: SizeBytes = %d, want %d (records, an empty header, a two-site header)", got, want)
	}
}

// replayInto replays the whole trace into llc through a one-consumer
// broadcast, the shape every full-fidelity replay takes.
func replayInto(tr *Trace, llc *cache.Cache) error {
	return tr.BroadcastNCtx(context.Background(), 0, []func([]mem.Access){func(accs []mem.Access) {
		for _, a := range accs {
			llc.Access(a)
		}
	}})
}

// TestRecorderFiltersUpperLevels: with the L1/L2 front-end, the recorded
// stream must be exactly the accesses a Hierarchy would pass to its LLC,
// and the recording's L1/L2 stats must match the hierarchy's.
func TestRecorderFiltersUpperLevels(t *testing.T) {
	hcfg := cache.DefaultHierarchyConfig()
	rec, err := NewRecorder(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.NewHierarchy(hcfg, cache.NewLRU(hcfg.LLC.Sets(), hcfg.LLC.Ways), nil)
	if err != nil {
		t.Fatal(err)
	}
	accs := interesting()
	for _, a := range accs {
		rec.Access(a)
		h.Access(a)
	}
	tr, err := rec.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.L1Stats() != h.L1.Stats || tr.L2Stats() != h.L2.Stats {
		t.Fatalf("filter stats diverge: L1 %+v vs %+v, L2 %+v vs %+v",
			tr.L1Stats(), h.L1.Stats, tr.L2Stats(), h.L2.Stats)
	}
	if tr.Len() != int64(h.LLC.Stats.Accesses()) {
		t.Fatalf("recorded %d LLC-bound accesses, hierarchy LLC saw %d",
			tr.Len(), h.LLC.Stats.Accesses())
	}
	llc := cache.MustNew(hcfg.LLC, cache.NewLRU(hcfg.LLC.Sets(), hcfg.LLC.Ways))
	if err := replayInto(tr, llc); err != nil {
		t.Fatal(err)
	}
	if llc.Stats != h.LLC.Stats {
		t.Fatalf("replayed LLC stats %+v != hierarchy LLC stats %+v", llc.Stats, h.LLC.Stats)
	}
}

// TestFinishRightSizesTail: what a sealed trace keeps allocated is what it
// reports — the budgets charge SizeBytes, so no chunk may keep the
// recorder's scratch buffer or any other array larger than its records
// and header. Checked for a trace shorter than one chunk, one ending
// exactly on a chunk boundary, and a multi-chunk trace with a partial
// tail.
func TestFinishRightSizesTail(t *testing.T) {
	stream := func(n int) []mem.Access {
		accs := make([]mem.Access, n)
		for i := range accs {
			accs[i] = mem.Access{Addr: 0x1000_0000 + uint64(i%977)*64, PC: uint32(i % 3)}
		}
		return accs
	}
	for name, n := range map[string]int{
		"short": 100,
		"exact": chunkRecords,
		"multi": 2*chunkRecords + 5000,
	} {
		accs := stream(n)
		tr := record(t, accs)
		var held int64
		for _, ch := range tr.chunks {
			held += int64(cap(ch.hw))*halfwordBytes + int64(cap(ch.addr))*8 + int64(cap(ch.flag))
		}
		if held != tr.SizeBytes() {
			t.Errorf("%s: chunks hold %d bytes of backing array, SizeBytes = %d", name, held, tr.SizeBytes())
		}
		checkRoundTrip(t, accs, tr)
	}
}

// TestCursorCancelAndFailpoint drives the four replay shapes that sit on
// the shared chunk cursor — broadcast, masked broadcast, interleave and the
// interleaved fan-out — through the same three faults over a multi-chunk
// trace: a context cancelled up front delivers nothing
// and returns ContextErr with its cause; one cancelled from inside the
// first delivery stops within the chunks already in flight; and the
// trace.replay.chunk failpoint armed to fire on the second chunk surfaces
// as "trace: replay: …" after exactly the work of the first.
func TestCursorCancelAndFailpoint(t *testing.T) {
	const chunks = 6
	accs := make([]mem.Access, chunks*chunkRecords)
	for i := range accs {
		accs[i] = mem.Access{Addr: uint64(i) << cache.BlockBits, PC: uint32(i % 7)}
	}
	collect := func(seen func(int)) []func([]mem.Access) {
		return []func([]mem.Access){func(a []mem.Access) { seen(len(a)) }}
	}
	entries := []struct {
		name  string
		ahead int64 // chunks the shape may decode ahead of its consumer
		run   func(ctx context.Context, tr *Trace, seen func(n int)) error
	}{
		{"broadcast", broadcastSlabs, func(ctx context.Context, tr *Trace, seen func(int)) error {
			return tr.BroadcastNCtx(ctx, 0, collect(seen))
		}},
		{"masked broadcast", broadcastSlabs, func(ctx context.Context, tr *Trace, seen func(int)) error {
			_, err := tr.BroadcastMaskedNCtx(ctx, 0, maskOf(0, 1, 2, 3), collect(seen))
			return err
		}},
		{"interleave", 0, func(ctx context.Context, tr *Trace, seen func(int)) error {
			streams := []InterleaveStream{{Trace: tr, Weight: 3}, {Trace: tr, Weight: 2}}
			return InterleaveReplayCtx(ctx, streams, 0, func(_ int, a []mem.Access) { seen(len(a)) })
		}},
		{"interleave broadcast", broadcastSlabs, func(ctx context.Context, tr *Trace, seen func(int)) error {
			// The first stream's turn is a whole chunk, so slabs fill (and
			// are sent) at chunk loads, where the context and the failpoint
			// are checked: what was merged before a fault is delivered.
			streams := []InterleaveStream{{Trace: tr, Weight: chunkRecords}, {Trace: tr, Weight: 2}}
			return InterleaveBroadcastCtx(ctx, streams, 0, StreamTag{AddrShift: 48, PCShift: 24}, collect(seen))
		}},
	}
	cause := errors.New("test: job deleted")
	tr := record(t, accs)
	if len(tr.chunks) != chunks {
		t.Fatalf("want %d chunks, got %d", chunks, len(tr.chunks))
	}
	for _, e := range entries {
		t.Run("resident/"+e.name, func(t *testing.T) {
			var delivered int64
			count := func(n int) { delivered += int64(n) }

			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(cause)
			err := e.run(ctx, tr, count)
			if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
				t.Fatalf("cancelled up front: err = %v, want ContextErr carrying the cause", err)
			}
			if delivered != 0 {
				t.Fatalf("cancelled up front: %d accesses delivered", delivered)
			}

			ctx, cancel = context.WithCancelCause(context.Background())
			err = e.run(ctx, tr, func(n int) { count(n); cancel(cause) })
			if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
				t.Fatalf("cancelled mid-stream: err = %v, want ContextErr carrying the cause", err)
			}
			if bound := (1 + e.ahead) * chunkRecords; delivered == 0 || delivered > bound {
				t.Fatalf("cancelled mid-stream: %d accesses delivered, want 1..%d", delivered, bound)
			}

			delivered = 0
			fail.ArmAfter("trace.replay.chunk", 1, nil)
			defer fail.Disarm("trace.replay.chunk")
			err = e.run(context.Background(), tr, count)
			if !errors.Is(err, fail.ErrInjected) || !strings.HasPrefix(err.Error(), "trace: replay: ") {
				t.Fatalf("failpoint: err = %v, want trace: replay: %v", err, fail.ErrInjected)
			}
			if delivered == 0 || delivered > chunkRecords {
				t.Fatalf("failpoint on the second chunk: %d accesses delivered, want 1..%d", delivered, chunkRecords)
			}
		})
	}
}
