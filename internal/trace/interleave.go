// Interleaved multi-stream replay: the co-run consumer shape of the trace
// engine (DESIGN.md Sec. 15). A broadcast replay fans ONE cursor out to
// many LLCs; an interleaved replay does the inverse — it merges MANY
// cursors into one consumer, round-robin in ratio-weighted quanta, the way
// a shared LLC observes the miss streams of co-scheduled cores. Each
// delivered batch carries the index of the stream it came from, so the
// consumer can attribute shared-cache activity back to the application
// that caused it. InterleaveBroadcastCtx composes the two: the streams are
// merged once, each access tagged with its stream, and the merged order is
// fanned out to many shared LLCs through the broadcast ring.
//
// Determinism: the merged order is a pure function of the streams, their
// weights and the limit — one goroutine, no channels, whether it feeds a
// callback or the ring — so a co-run replay is exactly reproducible across
// runs and GOMAXPROCS settings, and a single-stream interleave degenerates
// to the recording order a one-consumer BroadcastNCtx delivers (the
// equivalence the 1-app co-run row of the tier table pins).
package trace

import (
	"context"
	"fmt"

	"grasp/internal/mem"
)

// InterleaveStream pairs one recorded trace with its round-robin ratio
// weight: the stream issues Weight accesses per turn of the interleave.
// Streams may share one *Trace — each entry decodes through its own
// cursor.
type InterleaveStream struct {
	Trace  *Trace
	Weight int
}

// interleaveCursor is one stream's private decode position: its chunk
// cursor, a slabAccesses buffer of its next decoded accesses, and how many
// of them the merge has already delivered.
type interleaveCursor struct {
	cursor
	buf  []mem.Access // the stream's decoded, not yet merged accesses
	pos  int          // next undelivered index in buf
	dead bool         // stream (or its per-stream limit) exhausted
}

// InterleaveReplayCtx merges the streams' decoded access sequences into
// consume, deterministically: streams take turns in argument order, stream
// i delivering up to Weight_i accesses per turn, until every stream is
// exhausted (limit > 0 caps the accesses taken from EACH stream — the
// bounded-prefix form, mirroring BroadcastNCtx). A stream that runs out
// simply drops from the rotation; the survivors keep their weights, as
// live cores keep issuing after a neighbor finishes.
//
// consume(stream, accs) receives each stream's accesses in that stream's
// recording order, in batches of at most Weight_stream (smaller at the
// seams of its decode buffer); the concatenation of all batches for one
// stream is exactly the recorded prefix a BroadcastNCtx of that trace
// delivers. Batches borrow the cursor's decode buffer and are only valid
// during the call — consumers must not retain them. consume runs on the
// calling goroutine; an unsynchronized LLC simulation is a valid consumer.
func InterleaveReplayCtx(ctx context.Context, streams []InterleaveStream, limit int64, consume func(stream int, accs []mem.Access)) error {
	cursors, err := openInterleave(ctx, streams, limit)
	if err != nil {
		return err
	}
	return mergeInterleave(streams, cursors, consume)
}

// openInterleave validates the streams and opens one cursor per stream.
func openInterleave(ctx context.Context, streams []InterleaveStream, limit int64) ([]interleaveCursor, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("trace: interleave needs at least one stream")
	}
	cursors := make([]interleaveCursor, len(streams))
	for i, st := range streams {
		if st.Trace == nil {
			return nil, fmt.Errorf("trace: interleave stream %d has no trace", i)
		}
		if st.Weight <= 0 {
			return nil, fmt.Errorf("trace: interleave stream %d has weight %d, want >= 1", i, st.Weight)
		}
		cursors[i].cursor = st.Trace.newCursor(ctx, limit, fullMask)
		cursors[i].buf = make([]mem.Access, 0, slabAccesses) // the cursor fills it mid-chunk
	}
	return cursors, nil
}

// mergeInterleave is the round-robin loop itself: the one place the merged
// order is produced.
func mergeInterleave(streams []InterleaveStream, cursors []interleaveCursor, consume func(stream int, accs []mem.Access)) error {
	for alive := len(cursors); alive > 0; {
		for i := range cursors {
			c := &cursors[i]
			if c.dead {
				continue
			}
			for q := streams[i].Weight; q > 0; {
				if c.pos >= len(c.buf) {
					var err error
					if c.buf, err = c.next(c.buf); err != nil {
						return err
					}
					c.pos = 0
					if len(c.buf) == 0 {
						c.dead = true
						alive--
						break
					}
				}
				take := min(len(c.buf)-c.pos, q)
				consume(i, c.buf[c.pos:c.pos+take])
				c.pos += take
				q -= take
			}
		}
	}
	return nil
}

// StreamTag places a stream's index into the accesses an interleaved
// fan-out delivers: stream i's addresses are offset by i<<AddrShift and its
// PCs by i<<PCShift, so consumers of the merged order can tell the streams
// apart (and recover i from an address whose recorded bits stay below
// AddrShift) without a side channel. Stream 0 is delivered untouched.
type StreamTag struct {
	AddrShift, PCShift uint
}

// InterleaveBroadcastCtx is InterleaveReplayCtx with the fan-out of
// BroadcastNCtx: the streams are merged ONCE — one cursor per stream, the
// same deterministic round-robin — into slabs of the tagged merged order,
// and every slab goes to each consumer through the broadcast ring. An
// N-policy co-run sweep of one mix thus pays one decode and one merge
// instead of N (DESIGN.md Sec. 15). Each consumer sees exactly the access
// sequence a private InterleaveReplayCtx would have delivered to it, tags
// applied, re-cut at slab boundaries; consumers run concurrently with each
// other and with the merge, each one sequentially. Cancellation, consumer
// panics and the completed-run counters behave as for BroadcastNCtx.
func InterleaveBroadcastCtx(ctx context.Context, streams []InterleaveStream, limit int64, tag StreamTag, consumers []func(accs []mem.Access)) error {
	cursors, err := openInterleave(ctx, streams, limit)
	if err != nil {
		return err
	}
	return fanOut(consumers, false, func(r *ring) error {
		s := r.take()
		err := mergeInterleave(streams, cursors, func(stream int, accs []mem.Access) {
			base, pcBase := uint64(stream)<<tag.AddrShift, uint32(stream)<<tag.PCShift
			for len(accs) > 0 {
				n := len(s.accs)
				take := min(cap(s.accs)-n, len(accs))
				s.accs = s.accs[:n+take]
				for j, a := range accs[:take] {
					a.Addr += base
					a.PC += pcBase
					s.accs[n+j] = a
				}
				accs = accs[take:]
				if len(s.accs) == cap(s.accs) {
					r.send(s)
					s = r.take()
				}
			}
		})
		if err == nil && len(s.accs) > 0 {
			r.send(s)
		}
		return err
	})
}
