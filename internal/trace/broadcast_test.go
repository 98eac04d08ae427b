package trace

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/mem"
)

// collectBroadcast fans the trace out to n collector consumers and
// returns each consumer's received stream.
func collectBroadcast(t *testing.T, tr *Trace, n int, limit int64) [][]mem.Access {
	t.Helper()
	got := make([][]mem.Access, n)
	consumers := make([]func([]mem.Access), n)
	for i := range consumers {
		i := i
		consumers[i] = func(accs []mem.Access) {
			// Slabs are recycled after the last consumer drops them, so a
			// collector must copy.
			got[i] = append(got[i], accs...)
		}
	}
	if err := tr.BroadcastNCtx(context.Background(), limit, consumers); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBroadcastDeliversIdenticalStreams: every consumer of one broadcast
// must receive exactly the stream a dedicated decode would produce, for
// resident and fully spilled encodings alike (the spilled case also
// exercises chunk read-back into the shared slab ring).
func TestBroadcastDeliversIdenticalStreams(t *testing.T) {
	accs := interesting()
	for name, override := range map[string]int64{"resident": 0, "spilled": -1} {
		t.Run(name, func(t *testing.T) {
			tr := record(t, accs, override)
			for _, streams := range collectBroadcast(t, tr, 5, 0) {
				if len(streams) != len(accs) {
					t.Fatalf("consumer got %d accesses, want %d", len(streams), len(accs))
				}
				for i, a := range accs {
					if streams[i] != a {
						t.Fatalf("access %d: got %+v, want %+v", i, streams[i], a)
					}
				}
			}
		})
	}
}

// TestBroadcastLoneConsumerPanic: a lone consumer runs inline, and its
// panic is contained there as on a consumer goroutine: reported with its
// stack, never applied again, the fan-out not counted as completed.
func TestBroadcastLoneConsumerPanic(t *testing.T) {
	tr := recordAccesses(t, seqAccesses(0, 3*chunkWords))
	calls := 0
	runs0, _ := BroadcastStats()
	err := tr.BroadcastNCtx(context.Background(), 0, []func([]mem.Access){func([]mem.Access) {
		if calls++; calls == 2 {
			panic("policy bug")
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "panicked: policy bug") || !strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("err = %v, want the consumer's panic with its stack", err)
	}
	if calls != 2 {
		t.Errorf("the panicked consumer was invoked %d times, want 2 (never again after its panic)", calls)
	}
	if runs, _ := BroadcastStats(); runs != runs0 {
		t.Error("a fan-out with a panicked consumer counted as a completed run")
	}
}

// TestBroadcastHonorsLimit: the bounded-prefix form must stop every
// consumer at exactly limit accesses (the OPT study's contract).
func TestBroadcastHonorsLimit(t *testing.T) {
	accs := interesting()
	tr := record(t, accs, 0)
	const limit = 1234
	for _, streams := range collectBroadcast(t, tr, 3, limit) {
		if len(streams) != limit {
			t.Fatalf("consumer got %d accesses, want %d", len(streams), limit)
		}
		for i := 0; i < limit; i++ {
			if streams[i] != accs[i] {
				t.Fatalf("access %d diverges", i)
			}
		}
	}
}

// TestBroadcastCounters: completed fan-outs must be observable through
// BroadcastStats (the CI smoke's assertion that the decode-once path is
// taken).
func TestBroadcastCounters(t *testing.T) {
	runs0, cons0 := BroadcastStats()
	tr := record(t, interesting(), 0)
	collectBroadcast(t, tr, 4, 0)
	runs, cons := BroadcastStats()
	if runs != runs0+1 || cons != cons0+4 {
		t.Fatalf("BroadcastStats delta = (%d,%d), want (1,4)", runs-runs0, cons-cons0)
	}
}

// TestPinBlocksRelease: a pinned trace must stay replayable across a
// concurrent Release, and its resources must be reclaimed exactly when
// the last pin drops; pinning after release must fail.
func TestPinBlocksRelease(t *testing.T) {
	// A stream long enough for several 512KB chunks, recorded under an
	// override that keeps the first chunk resident and spills the rest.
	var accs []mem.Access
	for i := 0; i < 15; i++ {
		accs = append(accs, interesting()...)
	}
	r := NewRawRecorder()
	r.SetMemoryOverride(520 << 10)
	for _, a := range accs {
		r.Record(a)
	}
	tr, err := r.Finish(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ResidentBytes() == 0 || tr.SpilledBytes() == 0 {
		t.Fatalf("want a mixed resident/spilled trace, got resident=%d spilled=%d",
			tr.ResidentBytes(), tr.SpilledBytes())
	}
	inUse0 := MemoryInUse()
	if !tr.Pin() {
		t.Fatal("pin on a live trace failed")
	}
	tr.Release()
	// Released but pinned: decoding (including the spill file) must work.
	got, err := tr.Accesses(0)
	if err != nil {
		t.Fatalf("replay of a pinned trace after Release: %v", err)
	}
	if len(got) != len(accs) {
		t.Fatalf("pinned replay decoded %d accesses, want %d", len(got), len(accs))
	}
	if MemoryInUse() != inUse0 {
		t.Fatal("resident bytes reclaimed while a pin was outstanding")
	}
	tr.Unpin()
	if MemoryInUse() != inUse0-tr.ResidentBytes() {
		t.Fatal("resident bytes not reclaimed after the last unpin")
	}
	if tr.Pin() {
		t.Fatal("pin succeeded on a released trace")
	}
	if _, err := tr.Accesses(0); err == nil {
		t.Fatal("replay succeeded on a destroyed trace")
	}
	// Idempotence.
	tr.Release()
}

// TestBroadcastConcurrentWithRelease hammers broadcast replays against a
// racing Release: every broadcast that starts from a successful Pin must
// complete with a full, correct stream. Run under -race in CI.
func TestBroadcastConcurrentWithRelease(t *testing.T) {
	accs := interesting()
	for round := 0; round < 20; round++ {
		r := NewRawRecorder()
		r.SetMemoryOverride(-1) // all spilled: release closes the file
		for _, a := range accs {
			r.Record(a)
		}
		tr, err := r.Finish(0)
		if err != nil {
			t.Fatal(err)
		}
		var counts [3]atomic.Int64
		done := make(chan error, 1)
		go func() {
			if !tr.Pin() {
				done <- nil // lost the race before starting; nothing to check
				return
			}
			defer tr.Unpin()
			consumers := make([]func([]mem.Access), len(counts))
			for i := range consumers {
				i := i
				consumers[i] = func(a []mem.Access) { counts[i].Add(int64(len(a))) }
			}
			done <- tr.BroadcastNCtx(context.Background(), 0, consumers)
		}()
		tr.Release()
		if err := <-done; err != nil {
			t.Fatalf("round %d: pinned broadcast failed: %v", round, err)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 0 && n != int64(len(accs)) {
				t.Fatalf("round %d: consumer %d saw a partial stream (%d of %d)",
					round, i, n, len(accs))
			}
		}
	}
}
