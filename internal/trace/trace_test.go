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

// TestChunkBoundaryEscape fills a chunk to one slot short of capacity and
// then emits escape records, which must not split across the boundary.
func TestChunkBoundaryEscape(t *testing.T) {
	var accs []mem.Access
	addr := uint64(0)
	for i := 0; i < chunkWords-1; i++ {
		addr += 64
		accs = append(accs, mem.Access{Addr: addr})
	}
	for i := 0; i < 10; i++ {
		addr += uint64(1) << 60 // escape every time
		accs = append(accs, mem.Access{Addr: addr, PC: uint32(i)})
	}
	checkRoundTrip(t, accs, record(t, accs))
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

// TestCodecWordForms pins the three record forms at their edges: each
// stream round-trips through the reference decoder AND encodes to exactly
// the words its forms cost (compact 1, wide 2, escape 4), so a form that
// silently widens fails here even when the decode still agrees. The
// boundary cases put a wide and an escape record where the open chunk is
// one and three words short of full, and just fits them: the recorder
// seals early, never splitting a record.
func TestCodecWordForms(t *testing.T) {
	const (
		compact = 1
		wide    = 2
		escape  = 4
	)
	type step struct {
		delta int64 // block delta vs the previous access
		pc    uint32
		words int // the form it must take
	}
	// at builds the access stream for steps, starting at block 0 and
	// varying the sub-block offset and flags so every head bit moves.
	at := func(steps []step) (accs []mem.Access, words int) {
		var block uint64
		for i, s := range steps {
			block += uint64(s.delta)
			if block > ^uint64(0)>>cache.BlockBits {
				t.Fatalf("step %d: block %#x is outside the address space", i, block)
			}
			accs = append(accs, mem.Access{
				Addr:     block<<cache.BlockBits | uint64(i*13)&low6Mask,
				PC:       s.pc,
				Write:    i%2 == 1,
				Property: i%3 == 1,
			})
			words += s.words
		}
		return accs, words
	}
	const c18, c31 = int64(1) << 18, int64(1) << 31
	pcs := make([]step, 0, 36)
	for i := 0; i < 31; i++ { // the 30th distinct PC is compact, the 31st escapes
		w := compact
		if i == 30 {
			w = escape
		}
		pcs = append(pcs, step{1, uint32(1000 + i), w})
	}
	pcs = append(pcs,
		step{1, 1000, compact},
		step{1, 1030, escape}, // an unknown PC stays unknown
		step{c18, 1029, wide}, // the last index in the wide form's field
		step{-c18 - 1, 1029, wide},
	)
	for name, steps := range map[string][]step{
		// A recording's first record seeds the delta chain, so even a far
		// first block is compact.
		"compact": {{1 << 40, 7, compact}, {c18 - 1, 7, compact}, {c18 - 1, 7, compact}, {-c18, 7, compact}},
		"wide": {{0, 7, compact}, {c18, 7, wide}, {c18, 7, wide}, {-c18 - 1, 7, wide},
			{c31 - 1, 7, wide}, {-c31, 7, wide}},
		"escape": {{0, 7, compact}, {c31, 7, escape}, {c31, 7, escape}, {-c31 - 1, 7, escape},
			{int64(1) << 56, 7, escape}, {-(int64(1) << 56), 7, escape}, {int64(1)<<58 - c31, 7, escape}},
		"pcs": pcs,
	} {
		accs, words := at(steps)
		tr := record(t, accs)
		checkRoundTrip(t, accs, tr)
		if got, want := tr.SizeBytes(), int64(words)*wordBytes; got != want {
			t.Errorf("%s: SizeBytes = %d, want %d (%d words)", name, got, want, words)
		}
	}

	for _, c := range []struct {
		name        string
		form, short int
	}{
		{"wide/1-short", wide, 1},
		{"wide/fits", wide, 2},
		{"escape/3-short", escape, 3},
		{"escape/fits", escape, 4},
	} {
		steps := make([]step, chunkWords-c.short, chunkWords-c.short+2)
		for i := range steps {
			steps[i] = step{1, 3, compact}
		}
		delta := c18 // wide
		if c.form == escape {
			delta = c31
		}
		steps = append(steps, step{delta, 3, c.form}, step{1, 3, compact})
		accs, words := at(steps)
		tr := record(t, accs)
		checkRoundTrip(t, accs, tr)
		if got, want := tr.SizeBytes(), int64(words)*wordBytes; got != want {
			t.Errorf("%s: SizeBytes = %d, want %d", c.name, got, want)
		}
		first := chunkWords
		if c.short < c.form {
			first = chunkWords - c.short // sealed early
		}
		if len(tr.chunks) != 2 || len(tr.chunks[0].words) != first || len(tr.chunks[1].words) != words-first {
			t.Errorf("%s: chunks %d, first holds %d words; want 2 chunks, %d + %d",
				c.name, len(tr.chunks), len(tr.chunks[0].words), first, words-first)
		}
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
// reports — the budgets charge SizeBytes, so the tail chunk must not keep
// a full chunkWords backing array for a handful of words. Checked for a
// trace shorter than one chunk, one ending exactly on a chunk boundary,
// and a multi-chunk trace with a partial tail.
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
		"exact": chunkWords,
		"multi": 2*chunkWords + 5000,
	} {
		accs := stream(n)
		tr := record(t, accs)
		var held int64
		for _, ch := range tr.chunks {
			held += int64(cap(ch.words)) * wordBytes
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
	accs := make([]mem.Access, chunks*chunkWords)
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
			streams := []InterleaveStream{{Trace: tr, Weight: chunkWords}, {Trace: tr, Weight: 2}}
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
			if bound := (1 + e.ahead) * chunkWords; delivered == 0 || delivered > bound {
				t.Fatalf("cancelled mid-stream: %d accesses delivered, want 1..%d", delivered, bound)
			}

			delivered = 0
			fail.ArmAfter("trace.replay.chunk", 1, nil)
			defer fail.Disarm("trace.replay.chunk")
			err = e.run(context.Background(), tr, count)
			if !errors.Is(err, fail.ErrInjected) || !strings.HasPrefix(err.Error(), "trace: replay: ") {
				t.Fatalf("failpoint: err = %v, want trace: replay: %v", err, fail.ErrInjected)
			}
			if delivered == 0 || delivered > chunkWords {
				t.Fatalf("failpoint on the second chunk: %d accesses delivered, want 1..%d", delivered, chunkWords)
			}
		})
	}
}
