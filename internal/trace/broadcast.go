// Broadcast replay: the one way a decoded stream reaches its consumers.
// A decode pays record unpacking and delta reconstruction, so BroadcastNCtx
// runs one cursor over the trace, decoding each record exactly once into a
// slab of mem.Access values, and fans the slab out to every consumer: an
// N-policy sweep of one recording pays one decode, not N, and a lone
// replay is the same fan-out with one consumer. Consumers run in parallel
// on multi-core hosts (DESIGN.md Sec. 12); a lone
// full-fidelity one runs on the decoding goroutine.
//
// The fan-out itself (fanOut) does not know where slabs come from: it
// takes its slab source as a parameter. The solo source decodes one cursor
// into each slab; the co-run source (InterleaveBroadcastCtx, DESIGN.md
// Sec. 15) merges many cursors round-robin and cuts the tagged merged
// order into slabs. Everything below is shared by both.
//
// Slab size: a fan-out with one consumer decodes a chunk per slab
// (chunkRecords); one with several holds broadcastSlabs slabs at once, so
// its slabs are slabAccesses long and a chunk reaches them in pieces.
//
// Ownership and recycling: decoded slabs live in a bounded ring. The
// producer takes a free slab, fills it, sets its refcount to the consumer
// count and hands it to every consumer channel; each consumer drops one
// reference after applying the slab, and the last drop returns the slab to
// the ring. The ring bounds decoded-slab memory (slowest consumer applies
// backpressure through free-slab starvation) and the per-consumer channel
// capacity equals the ring size, so the producer never blocks on a channel
// send — only on slab reuse.
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
// producer can decode ahead of the consumers, few enough that a
// multi-consumer ring's decoded working set (broadcastSlabs x slabAccesses
// x sizeof(mem.Access) = 4 x 64 KB) is 256 KB, inside one core's L2.
const broadcastSlabs = 4

// slab is one run of decoded accesses in flight from the producer to the
// consumers.
type slab struct {
	accs []mem.Access
	refs atomic.Int32
}

// BroadcastNCtx decodes at most limit accesses (limit <= 0: all) once and
// fans every decoded slab out to each consumer, which receives exactly the
// first limit recorded accesses, in recording order, split at chunk and
// slab boundaries — the OPT study fans its bounded-prefix replays out this
// way. The decode is the one masked kernel under fullMask. Consumers run
// concurrently with each other and with the decode (a lone one inline,
// between chunks), each one sequentially, so an unsynchronized LLC
// simulation is a valid consumer.
//
// The producer's cursor checks the context once per chunk, so a cancelled
// fan-out stops decoding within one chunk boundary (the consumers then
// drain their bounded channels and exit); consumer panics are contained
// as fanOut describes.
func (t *Trace) BroadcastNCtx(ctx context.Context, limit int64, consumers []func(accs []mem.Access)) error {
	_, err := t.broadcast(ctx, limit, fullMask, true, consumers)
	return err
}

// BroadcastMaskedNCtx is BroadcastNCtx restricted to records whose
// block-address congruence class is in mask — the sampled tier's fan-out
// (DESIGN.md Sec. 14). Chunks decode with in-loop pruning, so slabs carry
// only the masked residue and every consumer's filter loop shrinks by the
// prune ratio. Consumers see exactly the subsequence of accesses a full
// BroadcastNCtx would deliver whose class is masked, in order — with sets
// <= PresenceBuckets that IS the sampled-set subsequence. The run's
// SkipReport is returned for the caller to account. On a Subsequence the
// report also counts what its build pruned, so a replay accounts for the
// whole recording either way.
func (t *Trace) BroadcastMaskedNCtx(ctx context.Context, limit int64, mask PresenceMask, consumers []func(accs []mem.Access)) (SkipReport, error) {
	rep, err := t.broadcast(ctx, limit, mask, false, consumers)
	rep.AccessesPruned += t.recorded - t.n
	return rep, err
}

// broadcast is the solo slab source over the fan-out ring: one cursor
// filling each slab, records outside mask pruned.
func (t *Trace) broadcast(ctx context.Context, limit int64, mask PresenceMask, inline bool, consumers []func(accs []mem.Access)) (SkipReport, error) {
	c := t.newCursor(ctx, limit, mask)
	err := fanOut(consumers, inline, func(r *ring) error {
		for {
			s := r.take()
			accs, err := c.next(s.accs)
			if err != nil || len(accs) == 0 {
				return err
			}
			s.accs = accs
			r.send(s)
		}
	})
	return c.rep, err
}

// ring is the producer's handle on a fan-out in flight: take a free slab,
// fill it, send it to every consumer.
type ring struct {
	free  chan *slab
	chans []chan *slab
	lone  func(accs []mem.Access) // inline mode: the one consumer, run in send
	size  int                     // slab capacity: chunkRecords or slabAccesses
	made  int                     // slabs allocated so far, <= broadcastSlabs
}

// take returns an empty slab of r.size capacity: a recycled one if any
// is free, a new one while the ring is not yet full — so a fan-out never
// holds more than broadcastSlabs slabs, and a stream shorter than the ring
// never allocates the slabs it would not use — and otherwise blocks until
// the slowest consumer has dropped one.
func (r *ring) take() *slab {
	var s *slab
	select {
	case s = <-r.free:
	default:
		if r.made < broadcastSlabs {
			r.made++
			return &slab{accs: make([]mem.Access, 0, r.size)}
		}
		s = <-r.free
	}
	s.accs = s.accs[:0]
	return s
}

// send hands a filled slab to every consumer.
func (r *ring) send(s *slab) {
	if r.lone != nil {
		r.lone(s.accs)
		r.free <- s
		return
	}
	s.refs.Store(int32(len(r.chans)))
	for _, ch := range r.chans {
		ch <- s
	}
}

// fanOut is the one fan-out engine: it starts a goroutine per consumer,
// runs source on the calling goroutine to fill and send slabs until the
// stream is exhausted or fails, then waits for the consumers to drain. The
// solo broadcast and the co-run interleave (InterleaveBroadcastCtx) differ
// only in the source. No consumers means nothing to do: source is not run.
//
// inline runs a lone consumer inside send instead, on one recycled slab:
// BroadcastNCtx's choice, DESIGN.md Sec. 11 says why.
//
// A panic inside a consumer is recovered where it runs — letting it escape
// would kill the whole process — and later slabs pass that consumer by
// (still dropping its references: the producer blocks on slab reuse, so a
// consumer that simply died would deadlock it). The first panic is
// reported as the fan-out's error, stack attached. The package counts
// nothing: the session that asked for a fan-out accounts it (exp.Ledger).
func fanOut(consumers []func(accs []mem.Access), inline bool, source func(r *ring) error) error {
	n := len(consumers)
	if n == 0 {
		return nil
	}
	r := &ring{free: make(chan *slab, broadcastSlabs), size: slabAccesses}
	if n == 1 {
		r.size = chunkRecords
	}
	var panicErr atomic.Pointer[error]
	guard := func(fn func([]mem.Access)) func([]mem.Access) {
		dead := false
		return func(accs []mem.Access) {
			defer func() {
				if p := recover(); p != nil {
					dead = true
					err := fmt.Errorf("trace: broadcast consumer panicked: %v\n%s", p, debug.Stack())
					panicErr.CompareAndSwap(nil, &err)
				}
			}()
			if !dead {
				fn(accs)
			}
		}
	}
	if inline && n == 1 {
		r.lone, consumers = guard(consumers[0]), nil // no channel, no goroutine
	}
	var wg sync.WaitGroup
	for _, fn := range consumers {
		// Capacity = ring size: at most broadcastSlabs slabs exist and a
		// slab is in each channel at most once, so sends never block.
		ch := make(chan *slab, broadcastSlabs)
		r.chans, fn = append(r.chans, ch), guard(fn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				if fn(s.accs); s.refs.Add(-1) == 0 {
					r.free <- s
				}
			}
		}()
	}
	err := func() error {
		// Deferred, so a source that panics (an armed failpoint) still
		// stops its consumers before the panic leaves.
		defer func() {
			for _, ch := range r.chans {
				close(ch)
			}
			wg.Wait()
		}()
		return source(r)
	}()
	if err != nil {
		return err
	}
	if pe := panicErr.Load(); pe != nil {
		return *pe
	}
	return nil
}
