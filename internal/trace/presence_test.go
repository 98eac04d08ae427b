package trace

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"grasp/internal/cache"
	"grasp/internal/fail"
	"grasp/internal/mem"
)

// classStream builds a stream whose accesses cluster per chunk: each
// segment of chunkRecords accesses stays inside one block congruence class,
// so a mask excluding that class prunes the chunk's every record.
func classStream(segments int, classes []uint64) []mem.Access {
	var accs []mem.Access
	for s := 0; s < segments; s++ {
		c := classes[s%len(classes)]
		for i := 0; i < chunkRecords; i++ {
			block := c + uint64(i)*PresenceBuckets
			accs = append(accs, mem.Access{
				Addr:  block << cache.BlockBits,
				PC:    uint32(s),
				Write: i%2 == 0,
			})
		}
	}
	return accs
}

// maskOf marks the given congruence classes.
func maskOf(classes ...uint64) PresenceMask {
	var m PresenceMask
	for _, c := range classes {
		m.set(c)
	}
	return m
}

// maskedDecode collects what a one-consumer masked fan-out delivers.
func maskedDecode(t *testing.T, tr *Trace, limit int64, mask PresenceMask) ([]mem.Access, SkipReport) {
	t.Helper()
	var got []mem.Access
	rep, err := tr.BroadcastMaskedNCtx(context.Background(), limit, mask, []func([]mem.Access){
		func(accs []mem.Access) { got = append(got, accs...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, rep
}

// TestChunkHeadersSelfContained asserts every sealed chunk's header lets
// it decode in isolation: the header holds, for each PC known when the
// chunk opened, the address and flags of that PC's last access before
// it (read off the recorded input, not a decoder), and the header plus
// the chunk's halfwords reproduce exactly the corresponding slice of the
// full decode; the chunks partition the stream.
func TestChunkHeadersSelfContained(t *testing.T) {
	// interesting() alone fits one chunk; repeat it until the encoding
	// crosses several chunk boundaries (escape forms land mid-stream, so
	// seams fall at every alignment across repetitions).
	var accs []mem.Access
	for len(accs) < 3*chunkRecords {
		accs = append(accs, interesting()...)
	}
	tr := record(t, accs)
	if len(tr.chunks) < 2 {
		t.Fatalf("want a multi-chunk trace, got %d chunks", len(tr.chunks))
	}
	ref, err := tr.Accesses(0)
	if err != nil {
		t.Fatal(err)
	}
	type site struct {
		addr        uint64
		write, prop bool
	}
	last := map[uint32]site{} // each PC's last access before off
	var off int64
	for ci := range tr.chunks {
		h := &tr.chunks[ci]
		if len(h.addr) != len(h.flag) {
			t.Fatalf("chunk %d: header has %d addresses and %d flags", ci, len(h.addr), len(h.flag))
		}
		for idx := range h.addr {
			want, ok := last[tr.pcs[idx]]
			got := site{h.addr[idx], h.flag[idx]&flagWrite != 0, h.flag[idx]&flagProp != 0}
			if !ok || got != want {
				t.Fatalf("chunk %d: header site %d (PC %#x) holds %+v, the input's last access there is %+v", ci, idx, tr.pcs[idx], got, want)
			}
		}
		// Decode this chunk alone, as a trace of its own seeded only by its
		// header's per-site state, with the cursor and kernel every replay
		// runs; Accesses shares none of it.
		one := &Trace{chunks: tr.chunks[ci : ci+1], pcs: tr.pcs, n: tr.n}
		c := one.newCursor(context.Background(), 0, fullMask)
		got, err := c.next(make([]mem.Access, 0, chunkRecords))
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range got {
			if a != ref[off+int64(i)] {
				t.Fatalf("chunk %d access %d: isolated decode %+v != full decode %+v", ci, i, a, ref[off+int64(i)])
			}
		}
		for _, a := range accs[off : off+int64(len(got))] {
			last[a.PC] = site{a.Addr, a.Write, a.Property}
		}
		off += int64(len(got))
	}
	if off != tr.Len() {
		t.Fatalf("isolated chunk decodes sum to %d accesses, trace has %d", off, tr.Len())
	}
}

// TestCursorSlabCapacities: a cursor filling buffers smaller than a chunk
// resumes mid-chunk without losing a record or the delta state. Over a
// multi-chunk trace of every encoding form, buffers of 1, 7, slabAccesses
// and chunkRecords accesses, under the full mask and a sampled one, with and
// without a limit that cuts mid-chunk, must each deliver exactly the
// (masked) prefix of the independent reference decode, and report the same
// SkipReport as chunk capacity: the chunk counts are taken once per chunk.
// A masked fan-out to two consumers (slabAccesses slabs) reports the same
// as to one (chunk-sized slabs).
func TestCursorSlabCapacities(t *testing.T) {
	var accs []mem.Access
	for len(accs) < 3*chunkRecords {
		accs = append(accs, interesting()...)
	}
	tr := record(t, accs)
	// Records per chunk, from the chunk-capacity walk: the limit cuts
	// the third chunk in half.
	var perChunk []int64
	for c := tr.newCursor(context.Background(), 0, fullMask); ; {
		got, err := c.next(make([]mem.Access, 0, chunkRecords))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		perChunk = append(perChunk, int64(len(got)))
	}
	if len(perChunk) < 4 || len(perChunk) != len(tr.chunks) {
		t.Fatalf("want a chunk per chunk-capacity batch over >= 4 chunks, got %d batches of %d chunks", len(perChunk), len(tr.chunks))
	}
	midChunk := perChunk[0] + perChunk[1] + perChunk[2]/2
	sampled := SampledSetsMask(64, SampledSets(64, 16))

	for _, mask := range []struct {
		name string
		m    PresenceMask
	}{{"full", fullMask}, {"sampled", sampled}} {
		for _, limit := range []int64{0, midChunk} {
			ref, err := tr.Accesses(limit)
			if err != nil {
				t.Fatal(err)
			}
			var want []mem.Access
			for _, a := range ref {
				if mask.m.test(cache.BlockAddr(a.Addr)) {
					want = append(want, a)
				}
			}
			var wantRep SkipReport
			for _, capacity := range []int{chunkRecords, slabAccesses, 7, 1} {
				name := fmt.Sprintf("%s/limit%d/cap%d", mask.name, limit, capacity)
				c := tr.newCursor(context.Background(), limit, mask.m)
				buf := make([]mem.Access, 0, capacity)
				var got []mem.Access
				for {
					if buf, err = c.next(buf); err != nil {
						t.Fatal(err)
					}
					if len(buf) == 0 {
						break
					}
					if len(buf) > capacity {
						t.Fatalf("%s: batch of %d past capacity", name, len(buf))
					}
					got = append(got, buf...)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: delivered %d accesses, not the reference's %d", name, len(got), len(want))
				}
				if capacity == chunkRecords {
					wantRep = c.rep
					if wantRep.AccessesDelivered+wantRep.AccessesPruned != int64(len(ref)) || wantRep.ChunksDecoded == 0 {
						t.Fatalf("%s: report %+v does not account the %d records scanned", name, wantRep, len(ref))
					}
				} else if c.rep != wantRep {
					t.Fatalf("%s: report %+v, chunk capacity reports %+v", name, c.rep, wantRep)
				}
			}
			one, oneRep := maskedDecode(t, tr, limit, mask.m)
			var two [2][]mem.Access
			twoRep, err := tr.BroadcastMaskedNCtx(context.Background(), limit, mask.m, []func([]mem.Access){
				func(a []mem.Access) { two[0] = append(two[0], a...) },
				func(a []mem.Access) { two[1] = append(two[1], a...) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if twoRep != oneRep || oneRep != wantRep {
				t.Fatalf("%s/limit%d: two-consumer report %+v, one-consumer %+v, cursor %+v", mask.name, limit, twoRep, oneRep, wantRep)
			}
			for _, g := range append(two[:], one) {
				if !slices.Equal(g, want) {
					t.Fatalf("%s/limit%d: a masked fan-out consumer's stream differs from the reference", mask.name, limit)
				}
			}
		}
	}
}

// TestSampledSetsMaskConservative checks both directions of the
// projection: any block mapping to a sampled set is masked (never a false
// negative, for every power-of-two geometry), and with sets <=
// PresenceBuckets the mask admits ONLY sampled-set blocks (exactness).
func TestSampledSetsMaskConservative(t *testing.T) {
	for _, sets := range []uint32{2, 4, 16, 64, 256, 1024} {
		for _, k := range []uint32{1, 2, 4, 16, 64} {
			sampled := SampledSets(sets, k)
			mask := SampledSetsMask(sets, sampled)
			inSample := make(map[uint32]bool)
			for _, s := range sampled {
				inSample[s] = true
			}
			for block := uint64(0); block < 4096; block++ {
				set := uint32(block & uint64(sets-1))
				if inSample[set] && !mask.test(block) {
					t.Fatalf("sets=%d k=%d: block %d maps to sampled set %d but is not masked", sets, k, block, set)
				}
				if sets <= PresenceBuckets && !inSample[set] && mask.test(block) {
					t.Fatalf("sets=%d k=%d: block %d (set %d, unsampled) wrongly masked", sets, k, block, set)
				}
			}
		}
	}
	if got := SampledSetsMask(16, nil); got != (PresenceMask{}) {
		t.Fatal("empty selection produced a non-empty mask")
	}
}

// TestReplayMaskedEquivalence: a one-consumer masked fan-out must deliver
// exactly the masked subsequence of a full decode, in order, with the
// report reconciling every recorded access.
func TestReplayMaskedEquivalence(t *testing.T) {
	accs := interesting()
	mask := maskOf(0, 3, 17, 200)
	tr := record(t, accs)
	var want []mem.Access
	for _, a := range accs {
		if mask.test(cache.BlockAddr(a.Addr)) {
			want = append(want, a)
		}
	}
	got, rep := maskedDecode(t, tr, 0, mask)
	if len(got) != len(want) {
		t.Fatalf("masked replay delivered %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if rep.AccessesDelivered != int64(len(want)) {
		t.Fatalf("report delivered %d, want %d", rep.AccessesDelivered, len(want))
	}
	if total := rep.AccessesPruned + rep.AccessesDelivered; total != tr.Len() {
		t.Fatalf("report accounts %d accesses, trace has %d", total, tr.Len())
	}
}

// TestReplayMaskedLimit: a bounded masked replay delivers exactly the
// masked subsequence of the first limit accesses — the limit counts
// recorded accesses scanned, pruned ones included, not the residue
// delivered.
func TestReplayMaskedLimit(t *testing.T) {
	accs := classStream(4, []uint64{1, 2, 1, 3})
	tr := record(t, accs)
	mask := maskOf(3)
	limit := int64(len(accs)) - chunkRecords/2 // cuts into the last (masked) segment
	var want []mem.Access
	for _, a := range accs[:limit] {
		if mask.test(cache.BlockAddr(a.Addr)) {
			want = append(want, a)
		}
	}
	got, rep := maskedDecode(t, tr, limit, mask)
	if len(got) != len(want) {
		t.Fatalf("bounded masked replay delivered %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if total := rep.AccessesPruned + rep.AccessesDelivered; total != limit {
		t.Fatalf("report accounts %d accesses, limit was %d", total, limit)
	}
}

// TestBroadcastMaskedMatchesFilterAfterDecode pins the sampled tier's
// equivalence at the trace layer: a SetFilter fed by the masked fan-out
// must land in the exact same state as one fed the recorded stream
// itself, for divisors above, at, and below the point where pruning
// bites.
func TestBroadcastMaskedMatchesFilterAfterDecode(t *testing.T) {
	accs := interesting()
	cfg := cache.Config{SizeBytes: 16 << 10, Ways: 16} // 16 sets
	tr := record(t, accs)
	for _, k := range []uint32{1, 4, 16} {
		sampled := SampledSets(cfg.Sets(), k)

		refLLC := cache.MustNew(cfg, cache.NewLRU(cfg.Sets(), cfg.Ways))
		ref, err := NewSetFilter(refLLC, sampled)
		if err != nil {
			t.Fatal(err)
		}
		ref.Consume(accs)

		gotLLC := cache.MustNew(cfg, cache.NewLRU(cfg.Sets(), cfg.Ways))
		got, err := NewSetFilter(gotLLC, sampled)
		if err != nil {
			t.Fatal(err)
		}
		mask := SampledSetsMask(cfg.Sets(), sampled)
		rep, err := tr.BroadcastMaskedNCtx(context.Background(), 0, mask, []func([]mem.Access){got.Consume})
		if err != nil {
			t.Fatal(err)
		}

		if gotLLC.Stats != refLLC.Stats {
			t.Fatalf("k=%d: masked fan-out LLC stats %+v != filter-after-decode %+v",
				k, gotLLC.Stats, refLLC.Stats)
		}
		gotAcc, gotMiss := got.Counts()
		refAcc, refMiss := ref.Counts()
		for i := range refAcc {
			if gotAcc[i] != refAcc[i] || gotMiss[i] != refMiss[i] {
				t.Fatalf("k=%d slot %d: masked counts (%d,%d) != reference (%d,%d)",
					k, i, gotAcc[i], gotMiss[i], refAcc[i], refMiss[i])
			}
		}
		if total := rep.AccessesPruned + rep.AccessesDelivered; total != tr.Len() {
			t.Fatalf("k=%d: report accounts %d accesses, trace has %d", k, total, tr.Len())
		}
		// With 16 sets the mask is exact: everything delivered lands in a
		// sampled set, so the filter forwards all of it.
		if uint64(rep.AccessesDelivered) != gotLLC.Stats.Accesses() {
			t.Fatalf("k=%d: delivered %d but LLC saw %d — mask not exact at 16 sets",
				k, rep.AccessesDelivered, gotLLC.Stats.Accesses())
		}
	}
}

// TestMaskedEmptyDelivery: a mask matching nothing must deliver nothing
// and still terminate (the cursor walks past every all-pruned chunk),
// with every access accounted as pruned.
func TestMaskedEmptyDelivery(t *testing.T) {
	accs := classStream(2, []uint64{1, 2})
	tr := record(t, accs)
	got, rep := maskedDecode(t, tr, 0, maskOf(77))
	if len(got) != 0 || rep.AccessesDelivered != 0 {
		t.Fatalf("empty mask delivered %d accesses", len(got))
	}
	if rep.AccessesPruned != tr.Len() {
		t.Fatalf("report accounts %d accesses, trace has %d", rep.AccessesPruned, tr.Len())
	}
}

// TestSubsequenceMatchesMaskedDecode: a Subsequence holds exactly what a
// masked replay of its parent delivers, in order, and keeps the parent's
// recording context; a
// masked replay of it accounts for the whole parent recording, and so
// does a subsequence of a subsequence.
func TestSubsequenceMatchesMaskedDecode(t *testing.T) {
	ctx := context.Background()
	accs := append(interesting(), classStream(3, []uint64{1, 2, 3})...)
	tr := record(t, accs)
	for _, mask := range []PresenceMask{maskOf(0, 3, 17, 200), maskOf(1, 3), fullMask, maskOf(77)} {
		want, _ := maskedDecode(t, tr, 0, mask)
		sub, err := tr.Subsequence(ctx, mask)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sub.Accesses(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("subsequence holds %d records, the masked replay delivers %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		if sub.RecordedLen() != tr.Len() || sub.AppTime() != tr.AppTime() || sub.L1Stats() != tr.L1Stats() || sub.L2Stats() != tr.L2Stats() {
			t.Fatal("subsequence lost its recording's context")
		}
		_, rep := maskedDecode(t, sub, 0, mask)
		if rep.AccessesDelivered != sub.Len() || rep.AccessesPruned+rep.AccessesDelivered != tr.Len() {
			t.Fatalf("replay of the subsequence reports %+v; want %d delivered of %d", rep, sub.Len(), tr.Len())
		}
		nested, err := sub.Subsequence(ctx, maskOf(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, rep := maskedDecode(t, nested, 0, maskOf(3)); nested.RecordedLen() != tr.Len() || rep.AccessesPruned+rep.AccessesDelivered != tr.Len() {
			t.Fatalf("nested subsequence RecordedLen %d, report %+v; want the recording's %d",
				nested.RecordedLen(), rep, tr.Len())
		}
	}
}

// TestSubsequenceCancelLeavesNothing: a build cancelled up front or failed
// part-way (after it has sealed chunks of its own) returns no trace and
// the error.
func TestSubsequenceCancelLeavesNothing(t *testing.T) {
	tr := record(t, classStream(4, []uint64{1, 2, 3, 4}))
	cause := errors.New("test: job deleted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if sub, err := tr.Subsequence(ctx, fullMask); sub != nil || !errors.Is(err, cause) {
		t.Fatalf("cancelled build: %v, %v; want no trace and the cause", sub, err)
	}
	defer fail.Disarm("trace.replay.chunk")
	fail.ArmAfter("trace.replay.chunk", 3, nil)
	if sub, err := tr.Subsequence(context.Background(), fullMask); sub != nil || !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("build failing on the fourth chunk: %v, %v; want no trace and the fault", sub, err)
	}
}
