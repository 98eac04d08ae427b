// Interleaved multi-stream replay: the co-run consumer shape of the trace
// engine (DESIGN.md Sec. 15). A broadcast replay fans ONE cursor out to
// many LLCs; an interleaved replay does the inverse — it merges MANY
// cursors into one consumer, round-robin in ratio-weighted quanta, the way
// a shared LLC observes the miss streams of co-scheduled cores. Each
// delivered batch carries the index of the stream it came from, so the
// consumer can attribute shared-cache activity back to the application
// that caused it.
//
// Determinism: the merged order is a pure function of the streams, their
// weights and the limit — no goroutines, no channels — so a co-run replay
// is exactly reproducible across runs and GOMAXPROCS settings, and a
// single-stream interleave degenerates to the recording order of a plain
// ReplayNCtx (the equivalence the co-run suite pins).
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
// cursor, the decoded accesses of the current chunk, and how many of them
// the merge has already delivered.
type interleaveCursor struct {
	cursor
	buf  []mem.Access // decoded accesses of the current chunk
	pos  int          // next undelivered index in buf
	dead bool         // stream (or its per-stream limit) exhausted
}

// InterleaveReplayCtx merges the streams' decoded access sequences into
// consume, deterministically: streams take turns in argument order, stream
// i delivering up to Weight_i accesses per turn, until every stream is
// exhausted (limit > 0 caps the accesses taken from EACH stream — the
// bounded-prefix form, mirroring ReplayNCtx). A stream that runs out simply
// drops from the rotation; the survivors keep their weights, as live cores
// keep issuing after a neighbor finishes.
//
// consume(stream, accs) receives each stream's accesses in that stream's
// recording order, in batches of at most Weight_stream (smaller at chunk
// seams); the concatenation of all batches for one stream is exactly what
// a dedicated ReplayNCtx of that trace would have decoded. Batches borrow the
// cursor's decode buffer and are only valid during the call — consumers
// must not retain them. consume runs on the calling goroutine; an
// unsynchronized LLC simulation is a valid consumer.
func InterleaveReplayCtx(ctx context.Context, streams []InterleaveStream, limit int64, consume func(stream int, accs []mem.Access)) error {
	if len(streams) == 0 {
		return fmt.Errorf("trace: interleave needs at least one stream")
	}
	cursors := make([]interleaveCursor, len(streams))
	for i, st := range streams {
		if st.Trace == nil {
			return fmt.Errorf("trace: interleave stream %d has no trace", i)
		}
		if st.Weight <= 0 {
			return fmt.Errorf("trace: interleave stream %d has weight %d, want >= 1", i, st.Weight)
		}
		c, err := st.Trace.newCursor(ctx, limit, nil)
		if err != nil {
			return err
		}
		cursors[i].cursor = c
	}
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
