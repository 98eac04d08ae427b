package trace

import (
	"context"
	"errors"
	"testing"

	"grasp/internal/cache"
	"grasp/internal/fail"
	"grasp/internal/mem"
)

// classStream builds a stream whose accesses cluster per chunk: each
// segment of chunkWords accesses stays inside one block congruence class,
// so a mask excluding that class prunes the chunk's every record.
func classStream(segments int, classes []uint64) []mem.Access {
	var accs []mem.Access
	for s := 0; s < segments; s++ {
		c := classes[s%len(classes)]
		for i := 0; i < chunkWords; i++ {
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
// it decode in isolation: the per-chunk base plus the chunk's words must
// reproduce exactly the corresponding slice of the full decode, resident
// and spilled alike, and the chunks must partition the stream.
func TestChunkHeadersSelfContained(t *testing.T) {
	// interesting() alone fits one chunk; repeat it until the encoding
	// crosses several chunk boundaries (escape forms land mid-stream, so
	// seams fall at every alignment across repetitions).
	var accs []mem.Access
	for len(accs) < 3*chunkWords {
		accs = append(accs, interesting()...)
	}
	for _, override := range []int64{0, -1} {
		tr := record(t, accs, override)
		if len(tr.chunks) < 2 {
			t.Fatalf("want a multi-chunk trace, got %d chunks", len(tr.chunks))
		}
		ref, err := tr.Accesses(0)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []word
		var buf []byte
		var off int64
		for ci := range tr.chunks {
			c := &tr.chunks[ci]
			words, err := tr.materialize(ci, &scratch, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(words) != c.n {
				t.Fatalf("chunk %d: %d words materialized, header says %d", ci, len(words), c.n)
			}
			// Decode this chunk alone, seeded only by its header base, with
			// the kernel every cursor runs; Accesses shares none of it.
			got, _ := tr.decodeAppendMasked(words, nil, c.base, 0, tr.Len(), fullMask)
			for i, a := range got {
				if a != ref[off+int64(i)] {
					t.Fatalf("chunk %d access %d: isolated decode %+v != full decode %+v", ci, i, a, ref[off+int64(i)])
				}
			}
			off += int64(len(got))
		}
		if off != tr.Len() {
			t.Fatalf("isolated chunk decodes sum to %d accesses, trace has %d", off, tr.Len())
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
// report reconciling every recorded access — resident and spilled.
func TestReplayMaskedEquivalence(t *testing.T) {
	accs := interesting()
	mask := maskOf(0, 3, 17, 200)
	for _, override := range []int64{0, -1} {
		tr := record(t, accs, override)
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
}

// TestReplayMaskedLimit: a bounded masked replay delivers exactly the
// masked subsequence of the first limit accesses — the limit counts
// recorded accesses scanned, pruned ones included, not the residue
// delivered.
func TestReplayMaskedLimit(t *testing.T) {
	accs := classStream(4, []uint64{1, 2, 1, 3})
	tr := record(t, accs, 0)
	mask := maskOf(3)
	limit := int64(len(accs)) - chunkWords/2 // cuts into the last (masked) segment
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
	for _, override := range []int64{0, -1} {
		tr := record(t, accs, override)
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
				t.Fatalf("k=%d override=%d: masked fan-out LLC stats %+v != filter-after-decode %+v",
					k, override, gotLLC.Stats, refLLC.Stats)
			}
			gotAcc, gotMiss := got.Counts()
			refAcc, refMiss := ref.Counts()
			for i := range refAcc {
				if gotAcc[i] != refAcc[i] || gotMiss[i] != refMiss[i] {
					t.Fatalf("k=%d override=%d slot %d: masked counts (%d,%d) != reference (%d,%d)",
						k, override, i, gotAcc[i], gotMiss[i], refAcc[i], refMiss[i])
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
}

// TestMaskedEmptyDelivery: a mask matching nothing must deliver nothing
// and still terminate (the cursor walks past every all-pruned chunk),
// with every access accounted as pruned.
func TestMaskedEmptyDelivery(t *testing.T) {
	accs := classStream(2, []uint64{1, 2})
	tr := record(t, accs, 0)
	got, rep := maskedDecode(t, tr, 0, maskOf(77))
	if len(got) != 0 || rep.AccessesDelivered != 0 {
		t.Fatalf("empty mask delivered %d accesses", len(got))
	}
	if rep.AccessesPruned != tr.Len() {
		t.Fatalf("report accounts %d accesses, trace has %d", rep.AccessesPruned, tr.Len())
	}
}

// TestSubsequenceMatchesMaskedDecode: a Subsequence holds exactly what a
// masked replay of its parent delivers, in order, from resident and
// spilled parents alike, and keeps the parent's recording context; a
// masked replay of it accounts for the whole parent recording, and so
// does a subsequence of a subsequence.
func TestSubsequenceMatchesMaskedDecode(t *testing.T) {
	ctx := context.Background()
	accs := append(interesting(), classStream(3, []uint64{1, 2, 3})...)
	for _, override := range []int64{0, -1} {
		tr := record(t, accs, override)
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
				t.Fatalf("override=%d: subsequence holds %d records, the masked replay delivers %d", override, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("override=%d record %d: got %+v, want %+v", override, i, got[i], want[i])
				}
			}
			if sub.RecordedLen() != tr.Len() || sub.AppTime() != tr.AppTime() || sub.L1Stats() != tr.L1Stats() || sub.L2Stats() != tr.L2Stats() {
				t.Fatalf("override=%d: subsequence lost its recording's context", override)
			}
			_, rep := maskedDecode(t, sub, 0, mask)
			if rep.AccessesDelivered != sub.Len() || rep.AccessesPruned+rep.AccessesDelivered != tr.Len() {
				t.Fatalf("override=%d: replay of the subsequence reports %+v; want %d delivered of %d", override, rep, sub.Len(), tr.Len())
			}
			nested, err := sub.Subsequence(ctx, maskOf(3))
			if err != nil {
				t.Fatal(err)
			}
			if _, rep := maskedDecode(t, nested, 0, maskOf(3)); nested.RecordedLen() != tr.Len() || rep.AccessesPruned+rep.AccessesDelivered != tr.Len() {
				t.Fatalf("override=%d: nested subsequence RecordedLen %d, report %+v; want the recording's %d",
					override, nested.RecordedLen(), rep, tr.Len())
			}
			nested.Release()
			sub.Release()
		}
	}
}

// TestSubsequenceCancelLeavesNothing: a build cancelled up front or failed
// part-way (after it has sealed chunks of its own) returns the error and
// gives back every byte it took.
func TestSubsequenceCancelLeavesNothing(t *testing.T) {
	tr := record(t, classStream(4, []uint64{1, 2, 3, 4}), 0)
	before := MemoryInUse()
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
	if after := MemoryInUse(); after != before {
		t.Fatalf("failed builds left %d bytes in use", after-before)
	}
}
