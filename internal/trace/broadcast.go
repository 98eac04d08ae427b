// Broadcast replay: the decode-once half of the trace engine. A plain
// ReplayNCtx pays the full decode (spill read-back, word unpacking, delta
// reconstruction) per replay, so an N-policy sweep of one recording decodes
// the same encoded stream N times. BroadcastNCtx runs one cursor over the
// trace, decoding each chunk exactly once into a slab of mem.Access values,
// and fans the slab out to every consumer, so a group pays one decode
// regardless of how many policies replay it — and the consumers run on
// their own goroutines, so the replays of one recording proceed in
// parallel on multi-core hosts (DESIGN.md Sec. 12).
//
// Ownership and recycling: decoded slabs live in a fixed-size ring. The
// producer takes a free slab, has the cursor decode into it, sets its refcount
// to the consumer count and hands it to every consumer channel; each
// consumer drops one reference after applying the slab, and the last drop
// returns the slab to the ring. The ring bounds decoded-slab memory
// (slowest consumer applies backpressure through free-slab starvation) and
// the per-consumer channel capacity equals the ring size, so the producer
// never blocks on a channel send — only on slab reuse.
package trace

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"grasp/internal/mem"
)

// broadcastSlabs is the ring size: enough in-flight slabs that the
// producer can decode ahead of the consumers, small enough that the
// decoded working set (broadcastSlabs x chunkWords x sizeof(mem.Access))
// stays a few MB.
const broadcastSlabs = 4

// Broadcast counters (process-wide observability): completed broadcast
// fan-outs and the total consumers they served. The CI bench smoke and the
// graspd /metrics endpoint read these to assert the decode-once path is
// actually taken for multi-policy groups.
var (
	broadcastRuns      atomic.Uint64
	broadcastConsumers atomic.Uint64
)

// BroadcastStats returns the process-wide broadcast counters: how many
// broadcast replays completed and the total consumers they fanned out to.
func BroadcastStats() (runs, consumers uint64) {
	return broadcastRuns.Load(), broadcastConsumers.Load()
}

// slab is one decoded chunk in flight from the producer to the consumers.
type slab struct {
	accs []mem.Access
	refs atomic.Int32
}

// BroadcastNCtx decodes at most limit accesses (limit <= 0: all) once and
// fans every decoded slab out to each consumer, which receives the exact
// access sequence (in recording order, split at chunk boundaries) that a
// dedicated ReplayNCtx would have decoded for it — the OPT study fans its
// bounded-prefix replays out this way. Consumers run concurrently with
// each other and with the decode; each individual consumer is invoked
// sequentially, so an unsynchronized LLC simulation is a valid consumer.
//
// The producer's cursor checks the context once per chunk, so a cancelled
// fan-out stops decoding within one chunk boundary (the consumers then
// drain their bounded channels and exit). A panic inside a consumer is
// recovered ON the consumer goroutine — letting it escape would kill the
// whole process — and the goroutine keeps draining its channel, dropping
// slab references without applying them, because the producer blocks on
// slab reuse and a consumer that simply died would deadlock it. The first
// panic is reported as the fan-out's error, stack attached.
func (t *Trace) BroadcastNCtx(ctx context.Context, limit int64, consumers []func(accs []mem.Access)) error {
	_, err := t.broadcast(ctx, limit, nil, consumers)
	return err
}

// BroadcastMaskedNCtx is BroadcastNCtx restricted to records whose
// block-address congruence class is in mask — the sampled tier's fan-out
// (DESIGN.md Sec. 14). Chunks decode with in-loop pruning, so slabs carry
// only the masked residue and every consumer's filter loop shrinks by the
// prune ratio. Consumers see exactly the subsequence of accesses a full
// BroadcastNCtx would deliver whose class is masked, in order — with sets
// <= PresenceBuckets that IS the sampled-set subsequence. The per-run
// SkipReport is returned and, on success, added to the process-wide
// SkipStats.
func (t *Trace) BroadcastMaskedNCtx(ctx context.Context, limit int64, mask PresenceMask, consumers []func(accs []mem.Access)) (SkipReport, error) {
	rep, err := t.broadcast(ctx, limit, &mask, consumers)
	if err == nil {
		countSkip(rep)
	}
	return rep, err
}

// broadcast is the shared producer/fan-out engine; mask == nil is the
// full-fidelity path, mask != nil the sampled prune path.
func (t *Trace) broadcast(ctx context.Context, limit int64, mask *PresenceMask, consumers []func(accs []mem.Access)) (SkipReport, error) {
	c, err := t.newCursor(ctx, limit, mask)
	if err != nil {
		return SkipReport{}, err
	}
	if len(consumers) == 0 {
		return SkipReport{}, nil
	}
	n := len(consumers)
	free := make(chan *slab, broadcastSlabs)
	for i := 0; i < broadcastSlabs; i++ {
		free <- &slab{accs: make([]mem.Access, 0, chunkWords)}
	}
	chans := make([]chan *slab, n)
	for i := range chans {
		// Capacity = ring size: at most broadcastSlabs slabs exist and a
		// slab is in each channel at most once, so sends below never block.
		chans[i] = make(chan *slab, broadcastSlabs)
	}
	var panicErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for i := range consumers {
		wg.Add(1)
		go func(ch chan *slab, fn func([]mem.Access)) {
			defer wg.Done()
			dead := false
			for s := range ch {
				if !dead {
					func() {
						defer func() {
							if p := recover(); p != nil {
								dead = true
								err := fmt.Errorf("trace: broadcast consumer panicked: %v\n%s", p, debug.Stack())
								panicErr.CompareAndSwap(nil, &err)
							}
						}()
						fn(s.accs)
					}()
				}
				if s.refs.Add(-1) == 0 {
					free <- s
				}
			}
		}(chans[i], consumers[i])
	}
	for {
		s := <-free
		if s.accs, err = c.next(s.accs); err != nil || len(s.accs) == 0 {
			break
		}
		s.refs.Store(int32(n))
		for _, ch := range chans {
			ch <- s
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if err == nil {
		if pe := panicErr.Load(); pe != nil {
			return c.rep, *pe
		}
		broadcastRuns.Add(1)
		broadcastConsumers.Add(uint64(n))
	}
	return c.rep, err
}
