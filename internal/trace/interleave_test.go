package trace

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"grasp/internal/fail"
	"grasp/internal/mem"
)

// recordAccesses builds an immutable trace from an access slice through
// the raw recorder.
func recordAccesses(t testing.TB, accs []mem.Access) *Trace {
	t.Helper()
	r := NewRawRecorder()
	for _, a := range accs {
		r.Record(a)
	}
	tr, err := r.Finish(time.Duration(0))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// seqAccesses returns n distinct accesses whose addresses encode (stream,
// position), so merged orders are checkable by value.
func seqAccesses(stream, n int) []mem.Access {
	out := make([]mem.Access, n)
	for i := range out {
		out[i] = mem.Access{Addr: uint64(stream)<<32 | uint64(i)<<6, PC: uint32(stream*1000 + i)}
	}
	return out
}

// collectInterleave replays the streams and returns the merged (stream,
// access) order plus each stream's delivered concatenation.
func collectInterleave(t testing.TB, streams []InterleaveStream, limit int64) (merged []int, perStream [][]mem.Access) {
	t.Helper()
	perStream = make([][]mem.Access, len(streams))
	err := InterleaveReplayCtx(context.Background(), streams, limit, func(stream int, accs []mem.Access) {
		for _, a := range accs {
			merged = append(merged, stream)
			perStream[stream] = append(perStream[stream], a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return merged, perStream
}

// TestInterleaveSingleStream: a 1-stream interleave delivers exactly the
// recording order of a plain decode — the degenerate case the co-run
// equivalence suite builds on.
func TestInterleaveSingleStream(t *testing.T) {
	want := seqAccesses(0, 1000)
	tr := recordAccesses(t, want)
	_, per := collectInterleave(t, []InterleaveStream{{Trace: tr, Weight: 7}}, 0)
	if len(per[0]) != len(want) {
		t.Fatalf("delivered %d accesses, want %d", len(per[0]), len(want))
	}
	for i, a := range per[0] {
		if a != want[i] {
			t.Fatalf("access %d: got %+v, want %+v", i, a, want[i])
		}
	}
}

// TestInterleaveRoundRobinOrder pins the merged schedule: streams take
// turns in argument order, weight_i accesses per turn, and an exhausted
// stream drops from the rotation while the survivors keep going.
func TestInterleaveRoundRobinOrder(t *testing.T) {
	a := recordAccesses(t, seqAccesses(0, 5))
	b := recordAccesses(t, seqAccesses(1, 3))
	merged, per := collectInterleave(t, []InterleaveStream{
		{Trace: a, Weight: 2}, {Trace: b, Weight: 1},
	}, 0)
	// Turns: a,a,b | a,a,b | a(exhausted after 1),b.
	want := []int{0, 0, 1, 0, 0, 1, 0, 1}
	if fmt.Sprint(merged) != fmt.Sprint(want) {
		t.Fatalf("merged order %v, want %v", merged, want)
	}
	for s, accs := range per {
		for i, a := range accs {
			if a != seqAccesses(s, len(accs))[i] {
				t.Fatalf("stream %d out of recording order at %d", s, i)
			}
		}
	}
}

// TestInterleaveSharedTrace: two streams over ONE trace decode through
// independent cursors — both deliver the full recording.
func TestInterleaveSharedTrace(t *testing.T) {
	want := seqAccesses(0, 777)
	tr := recordAccesses(t, want)
	_, per := collectInterleave(t, []InterleaveStream{
		{Trace: tr, Weight: 3}, {Trace: tr, Weight: 1},
	}, 0)
	for s := range per {
		if len(per[s]) != len(want) {
			t.Fatalf("stream %d delivered %d accesses, want %d", s, len(per[s]), len(want))
		}
		for i, a := range per[s] {
			if a != want[i] {
				t.Fatalf("stream %d access %d: got %+v, want %+v", s, i, a, want[i])
			}
		}
	}
}

// TestInterleaveLimit: limit > 0 caps the accesses taken from EACH stream
// (the bounded-prefix form, mirroring BroadcastNCtx).
func TestInterleaveLimit(t *testing.T) {
	a := recordAccesses(t, seqAccesses(0, 100))
	b := recordAccesses(t, seqAccesses(1, 10))
	_, per := collectInterleave(t, []InterleaveStream{
		{Trace: a, Weight: 1}, {Trace: b, Weight: 1},
	}, 25)
	if len(per[0]) != 25 || len(per[1]) != 10 {
		t.Fatalf("delivered %d/%d accesses, want 25/10", len(per[0]), len(per[1]))
	}
}

// TestInterleaveBatchesRespectWeight: no delivered batch exceeds its
// stream's weight (chunk seams may shorten batches, never lengthen them).
func TestInterleaveBatchesRespectWeight(t *testing.T) {
	a := recordAccesses(t, seqAccesses(0, 500))
	b := recordAccesses(t, seqAccesses(1, 400))
	streams := []InterleaveStream{{Trace: a, Weight: 5}, {Trace: b, Weight: 3}}
	err := InterleaveReplayCtx(context.Background(), streams, 0, func(stream int, accs []mem.Access) {
		if len(accs) == 0 || len(accs) > streams[stream].Weight {
			t.Fatalf("stream %d delivered a batch of %d (weight %d)", stream, len(accs), streams[stream].Weight)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInterleaveDeterministic: the merged order is identical across runs
// and GOMAXPROCS settings — the schedule is a pure function of (streams,
// weights, limit).
func TestInterleaveDeterministic(t *testing.T) {
	a := recordAccesses(t, seqAccesses(0, 2000))
	b := recordAccesses(t, seqAccesses(1, 1500))
	streams := []InterleaveStream{{Trace: a, Weight: 4}, {Trace: b, Weight: 3}}
	base, _ := collectInterleave(t, streams, 0)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for run := 0; run < 2; run++ {
		got, _ := collectInterleave(t, streams, 0)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("run %d (GOMAXPROCS=1): merged order diverged", run)
		}
	}
}

// TestInterleaveValidation: the argument contract errors, and a valid
// stream replays whole.
func TestInterleaveValidation(t *testing.T) {
	tr := recordAccesses(t, seqAccesses(0, 4))
	consume := func(int, []mem.Access) {}
	if err := InterleaveReplayCtx(context.Background(), nil, 0, consume); err == nil {
		t.Error("no streams accepted")
	}
	if err := InterleaveReplayCtx(context.Background(), []InterleaveStream{{Trace: nil, Weight: 1}}, 0, consume); err == nil {
		t.Error("nil trace accepted")
	}
	if err := InterleaveReplayCtx(context.Background(), []InterleaveStream{{Trace: tr, Weight: 0}}, 0, consume); err == nil {
		t.Error("zero weight accepted")
	}
	var n int
	count := func(_ int, accs []mem.Access) { n += len(accs) }
	if err := InterleaveReplayCtx(context.Background(), []InterleaveStream{{Trace: tr, Weight: 1}}, 0, count); err != nil || n != 4 {
		t.Errorf("valid stream: err = %v, %d of 4 accesses delivered; want a whole replay", err, n)
	}
}

// TestInterleaveCancellation: a cancelled context unwinds at a chunk
// boundary with the context's error.
func TestInterleaveCancellation(t *testing.T) {
	tr := recordAccesses(t, seqAccesses(0, 10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := InterleaveReplayCtx(ctx, []InterleaveStream{{Trace: tr, Weight: 1}}, 0,
		func(int, []mem.Access) {})
	if err == nil {
		t.Fatal("cancelled interleave returned nil")
	}
}

// testTag is the stream tag of the fan-out tests: the shifts the co-run
// uses, well above seqAccesses' 40 address and 16 PC bits.
var testTag = StreamTag{AddrShift: 48, PCShift: 24}

// taggedMerge returns the merged order InterleaveReplayCtx produces, with
// testTag applied by hand: the oracle every fan-out consumer must match.
func taggedMerge(t testing.TB, streams []InterleaveStream, limit int64) []mem.Access {
	t.Helper()
	var want []mem.Access
	err := InterleaveReplayCtx(context.Background(), streams, limit, func(stream int, accs []mem.Access) {
		for _, a := range accs {
			a.Addr += uint64(stream) << testTag.AddrShift
			a.PC += uint32(stream) << testTag.PCShift
			want = append(want, a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestInterleaveBroadcastMatchesReplay: every consumer of an interleaved
// fan-out receives exactly the tagged merged order a private
// InterleaveReplayCtx delivers — across weights, a shared trace, a
// per-stream limit and streams long enough that the merged order spans
// several slabs with a partial last one — and a completed fan-out counts
// as ONE broadcast run serving its consumers.
func TestInterleaveBroadcastMatchesReplay(t *testing.T) {
	short := recordAccesses(t, seqAccesses(0, 500))
	long := recordAccesses(t, seqAccesses(1, 2*chunkRecords+123))
	for _, tc := range []struct {
		name    string
		streams []InterleaveStream
		limit   int64
	}{
		{"one stream", []InterleaveStream{{Trace: short, Weight: 4}}, 0},
		{"weighted pair", []InterleaveStream{{Trace: short, Weight: 3}, {Trace: long, Weight: 1}}, 0},
		{"shared trace", []InterleaveStream{{Trace: long, Weight: 1}, {Trace: long, Weight: 1}, {Trace: short, Weight: 2}}, 0},
		{"limit", []InterleaveStream{{Trace: long, Weight: 2}, {Trace: short, Weight: 5}}, chunkRecords + 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := taggedMerge(t, tc.streams, tc.limit)
			const n = 3
			got := make([][]mem.Access, n)
			consumers := make([]func([]mem.Access), n)
			for i := range consumers {
				consumers[i] = func(accs []mem.Access) {
					if len(accs) == 0 || len(accs) > chunkRecords {
						t.Errorf("consumer %d: slab of %d accesses", i, len(accs))
					}
					got[i] = append(got[i], accs...) // slabs are recycled
				}
			}
			if err := InterleaveBroadcastCtx(context.Background(), tc.streams, tc.limit, testTag, consumers); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if len(got[i]) != len(want) {
					t.Fatalf("consumer %d got %d accesses, want %d", i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("consumer %d access %d: got %+v, want %+v", i, j, got[i][j], want[j])
					}
				}
			}
		})
	}
	if err := InterleaveBroadcastCtx(context.Background(), nil, 0, testTag, []func([]mem.Access){func([]mem.Access) {}}); err == nil {
		t.Error("no streams accepted")
	}
}

// TestInterleaveBroadcastConsumerPanic: a consumer that panics mid-stream
// is contained on its own goroutine — the ring keeps draining (the merged
// order is longer than the ring, so a consumer that merely died would
// deadlock the producer), the other consumers still receive every access,
// and the fan-out reports the panic with its stack.
func TestInterleaveBroadcastConsumerPanic(t *testing.T) {
	tr := recordAccesses(t, seqAccesses(0, (broadcastSlabs+2)*chunkRecords/2))
	streams := []InterleaveStream{{Trace: tr, Weight: 1}, {Trace: tr, Weight: 1}}
	var before, after int
	slabs := 0
	consumers := []func([]mem.Access){
		func(accs []mem.Access) { before += len(accs) },
		func([]mem.Access) {
			if slabs++; slabs == 2 {
				panic("policy bug")
			}
		},
		func(accs []mem.Access) { after += len(accs) },
	}
	err := InterleaveBroadcastCtx(context.Background(), streams, 0, testTag, consumers)
	if err == nil || !strings.Contains(err.Error(), "panicked: policy bug") || !strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("err = %v, want the consumer's panic with its stack", err)
	}
	if want := 2 * int(tr.Len()); before != want || after != want {
		t.Errorf("surviving consumers saw %d and %d accesses, want %d each", before, after, want)
	}
	if slabs != 2 {
		t.Errorf("the panicked consumer was invoked %d times, want 2 (never again after its panic)", slabs)
	}
}

// TestInterleaveBroadcastFailpointPerChunk: the fan-out decodes each
// stream's chunks exactly once however many consumers it serves — the
// trace.replay.chunk failpoint is passed once per chunk per stream, so
// armed to fire on hit chunks*streams+1 it never does, and on hit
// chunks*streams it fails the fan-out. Not parallel: failpoints are
// process-global.
func TestInterleaveBroadcastFailpointPerChunk(t *testing.T) {
	defer fail.Reset()
	tr := recordAccesses(t, seqAccesses(0, 3*chunkRecords))
	chunks := len(tr.chunks)
	if chunks < 3 {
		t.Fatalf("want a multi-chunk trace, got %d chunks", chunks)
	}
	streams := []InterleaveStream{{Trace: tr, Weight: 2}, {Trace: tr, Weight: 1}}
	consumers := make([]func([]mem.Access), 5)
	for i := range consumers {
		consumers[i] = func([]mem.Access) {}
	}
	fail.ArmAfter("trace.replay.chunk", chunks*len(streams), nil)
	if err := InterleaveBroadcastCtx(context.Background(), streams, 0, testTag, consumers); err != nil {
		t.Fatalf("failpoint armed past the last chunk fired: %v", err)
	}
	fail.ArmAfter("trace.replay.chunk", chunks*len(streams)-1, nil)
	err := InterleaveBroadcastCtx(context.Background(), streams, 0, testTag, consumers)
	if !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("failpoint armed on the last chunk: err = %v, want %v", err, fail.ErrInjected)
	}
}

// TestInterleaveBroadcastAllocBound: a fan-out's decoded memory is sized
// by how many buffers exist at once, not by the trace or the chunk. Over
// multi-chunk traces, a multi-consumer ring allocates at most its
// broadcastSlabs slabs of slabAccesses, a co-run fan-out of S streams at
// most S slabAccesses decode buffers plus those slabs, and a lone consumer
// one chunkRecords slab — measured as the TotalAlloc delta across the call,
// with a stated slack for its channels, goroutines and cursor table. A
// buffer grown by append, a chunk-sized buffer where a slab belongs, or a
// slab allocated per fill overshoots its bound. Not parallel: TotalAlloc
// is process-wide.
func TestInterleaveBroadcastAllocBound(t *testing.T) {
	const chunks = 8
	accs := make([]mem.Access, chunks*chunkRecords)
	for i := range accs {
		accs[i] = mem.Access{Addr: uint64(i) << 6, PC: uint32(i % 4)} // short: a halfword per record
	}
	tr := recordAccesses(t, accs)
	if len(tr.chunks) < chunks {
		t.Fatalf("want a trace of %d full chunks, got %d chunks", chunks, len(tr.chunks))
	}
	consumers := make([]func([]mem.Access), 3)
	for i := range consumers {
		consumers[i] = func([]mem.Access) {}
	}
	streams := []InterleaveStream{{Trace: tr, Weight: 3}, {Trace: tr, Weight: 1}}
	ctx := context.Background()
	access := uint64(unsafe.Sizeof(mem.Access{}))
	slabBytes, chunkBytes := slabAccesses*access, chunkRecords*access
	const slack = 16 << 10
	for _, c := range []struct {
		name  string
		bound uint64 // decoded-buffer bytes, slack excluded
		run   func() error
	}{
		{"interleave broadcast", uint64(len(streams)+broadcastSlabs) * slabBytes, func() error {
			return InterleaveBroadcastCtx(ctx, streams, 0, testTag, consumers)
		}},
		{"broadcast", broadcastSlabs * slabBytes, func() error { return tr.BroadcastNCtx(ctx, 0, consumers) }},
		{"lone broadcast", chunkBytes, func() error { return tr.BroadcastNCtx(ctx, 0, consumers[:1]) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s of %d-chunk traces: %d B allocated, bound %d B + %d B slack", c.name, chunks, got, c.bound, slack)
		if got > c.bound+slack {
			t.Errorf("%s of %d-chunk traces allocated %d B, want <= %d B + %d B slack (slab %d B, chunk %d B, %d ring slabs)",
				c.name, chunks, got, c.bound, slack, slabBytes, chunkBytes, broadcastSlabs)
		}
	}
}

// FuzzInterleaveReplay feeds hostile recording pairs and arbitrary ratio
// weights through the interleaver: two byte strings decode (13-byte
// records, the codec fuzz targets' layout) into traces A and B, replayed as three streams — A, B, and A
// again through a second cursor — under fuzzed weights and limit. Every
// stream's delivered concatenation must equal its trace's independent
// decode, batches must respect weights, and the merge must terminate.
func FuzzInterleaveReplay(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(1), byte(1), uint16(0))
	seedA := make([]byte, 0, 13*6)
	for i := 0; i < 6; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(i)<<uint(i*9))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(i)*2654435761)
		rec[12] = byte(i)
		seedA = append(seedA, rec[:]...)
	}
	f.Add(seedA, seedA[:13*2], byte(3), byte(1), uint16(4))
	f.Add(seedA[:13], seedA, byte(200), byte(0), uint16(1))
	f.Fuzz(func(t *testing.T, dataA, dataB []byte, wA, wB byte, limit16 uint16) {
		const recSize = 13
		decode := func(data []byte) *Trace {
			n := len(data) / recSize
			if n > 1<<12 {
				n = 1 << 12
			}
			r := NewRawRecorder()
			for i := 0; i < n; i++ {
				rec := data[i*recSize:]
				r.Record(mem.Access{
					Addr:     binary.LittleEndian.Uint64(rec[:8]),
					PC:       binary.LittleEndian.Uint32(rec[8:12]),
					Write:    rec[12]&1 != 0,
					Property: rec[12]&2 != 0,
				})
			}
			tr, err := r.Finish(time.Duration(0))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		trA := decode(dataA)
		trB := decode(dataB)
		weightA := int(wA%8) + 1
		weightB := int(wB%8) + 1
		limit := int64(limit16)
		streams := []InterleaveStream{
			{Trace: trA, Weight: weightA},
			{Trace: trB, Weight: weightB},
			{Trace: trA, Weight: weightB},
		}
		got := make([][]mem.Access, len(streams))
		err := InterleaveReplayCtx(context.Background(), streams, limit, func(stream int, accs []mem.Access) {
			if len(accs) == 0 || len(accs) > streams[stream].Weight {
				t.Fatalf("stream %d: batch of %d exceeds weight %d", stream, len(accs), streams[stream].Weight)
			}
			got[stream] = append(got[stream], accs...)
		})
		if err != nil {
			t.Fatal(err)
		}
		for s, st := range streams {
			want, err := st.Trace.Accesses(limit)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[s]) != len(want) {
				t.Fatalf("stream %d: delivered %d accesses, independent decode has %d", s, len(got[s]), len(want))
			}
			for i := range want {
				if got[s][i] != want[i] {
					t.Fatalf("stream %d access %d: got %+v, want %+v", s, i, got[s][i], want[i])
				}
			}
		}
	})
}
