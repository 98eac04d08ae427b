package trace

import (
	"context"
	"strings"
	"testing"

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
// must receive exactly the stream a dedicated decode would produce.
func TestBroadcastDeliversIdenticalStreams(t *testing.T) {
	accs := interesting()
	t.Run("resident", func(t *testing.T) {
		tr := record(t, accs)
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

// TestBroadcastLoneConsumerPanic: a lone consumer runs inline, and its
// panic is contained there as on a consumer goroutine: reported with its
// stack, never applied again.
func TestBroadcastLoneConsumerPanic(t *testing.T) {
	tr := recordAccesses(t, seqAccesses(0, 3*chunkRecords))
	calls := 0
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
}

// TestBroadcastHonorsLimit: the bounded-prefix form must stop every
// consumer at exactly limit accesses (the OPT study's contract).
func TestBroadcastHonorsLimit(t *testing.T) {
	accs := interesting()
	tr := record(t, accs)
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
