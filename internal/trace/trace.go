// Package trace is the record-once/replay-many engine of the simulator
// (DESIGN.md Sec. 11): a Recorder runs behind the application exactly once
// per (workload, app, layout), filters the access stream through the
// policy-independent L1/L2 upper levels, and sinks the LLC-bound residue
// into a compact encoded buffer; a replay then decodes that buffer
// straight into any LLC policy + geometry without re-executing the
// application. The paper's evaluation sweeps ~14 LLC policies and five LLC
// sizes over the same workloads (Figs. 5-11, Tables V-VII), so the
// recording cost is amortized over every point of a sweep.
//
// The encoding is lossless for everything the LLC can observe: byte
// address (GRASP's classification boundaries are byte-granular), synthetic
// PC, write flag and Property-Array flag. Each access is usually one
// 32-bit word — a signed block delta against the previous access plus the
// low six address bits, the flags, and a dictionary index for the PC —
// with a two-word wide form for longer jumps and a four-word escape form
// for anything else. Words accumulate in fixed-size in-memory chunks; a
// finished Trace is an immutable value that any number of goroutines
// replay at once, and Go's GC owns its lifetime. The package makes no
// memory decisions and keeps no memory accounting of its own: what a
// process retains is its recordings' owner's budget, charged each trace's
// SizeBytes (the exp store, DESIGN.md Sec. 10).
package trace

import (
	"context"
	"fmt"
	"time"

	"grasp/internal/cache"
	"grasp/internal/fail"
	"grasp/internal/mem"
)

// ContextErr renders a cancelled context as an error that still matches
// errors.Is(err, ctx.Err()) — so layered retry logic can recognize any
// cancellation generically — while carrying the richer cancel cause (a
// job deadline, an explicit DELETE, a preempting shutdown) in the
// message. It returns nil while ctx is live. The cancellation machinery
// of every layer (recorder aborts, replay chunk checks, session
// datapoint checks, the job manager) reports through this one shape.
func ContextErr(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil && cause != err {
		return fmt.Errorf("%w: %w", err, cause)
	}
	return err
}

// recordAbort is the panic payload that unwinds a traced application
// execution from inside its memory sink: the application drives accesses
// into the tracer and offers no return path, so the only way to stop it
// at a cancellation point is to unwind its goroutine. sim-level Ctx
// wrappers recover exactly this type (via AbortError) and convert it back
// into the cancellation error; any other panic keeps propagating.
type recordAbort struct{ err error }

// PanicAbort unwinds the calling goroutine with the cancellation
// sentinel. Sinks embedded in an application execution (the Recorder's
// own context poll, sim's cancellable direct-run sink) call it when their
// context dies.
func PanicAbort(err error) { panic(recordAbort{err: err}) }

// AbortError recognizes a recovered cancellation sentinel, returning the
// cancellation error it carried.
func AbortError(p any) (error, bool) {
	a, ok := p.(recordAbort)
	return a.err, ok
}

// ctxPollInterval is how many accesses a context-carrying Recorder lets
// pass between context polls: frequent enough that a cancelled recording
// unwinds within a chunk's worth of accesses, rare enough that the poll
// never shows up next to the per-access L1/L2 filter work.
const ctxPollInterval = chunkWords

// word is the unit of the encoded stream; wordBytes is its size, the
// factor every byte count of the codec (budgets, SizeBytes) is charged in.
type word = uint32

const wordBytes = 4

// Every record opens with a head word (LSB first):
//
//	bit  0      write flag
//	bit  1      Property-Array flag
//	bits 2-7    low 6 bits of the byte address (sub-block offset)
//	bits 8-12   PC dictionary index 0-29, or wideIdx / escapeIdx
//	bits 13-31  compact form: signed block delta vs the previous access
//
// and takes one of three forms:
//
//	compact (1 word)  index 0-29, a 19-bit delta in the head
//	wide    (2 words) index wideIdx; the PC index in bits 13-17, then a
//	                  signed 32-bit block delta
//	escape  (4 words) index escapeIdx; the full PC, then the full block
//	                  address, low word first
//
// ligra's streams use a couple of dozen static PCs, and their deltas fit
// 19 bits at bench scales and mostly at scale 1, so nearly every record is
// compact. The escape form covers PCs past the dictionary and jumps past
// 32 bits, so the codec stays total for arbitrary input (the fuzz target
// feeds it adversarial streams).
const (
	flagWrite = 1 << 0
	flagProp  = 1 << 1

	low6Shift = 2
	low6Mask  = 0x3F

	pcShift   = 8
	pcMask    = 0x1F
	wideIdx   = 30
	escapeIdx = 31
	maxPCs    = wideIdx // dictionary indices 0..29

	deltaShift = 13
	deltaBits  = 32 - deltaShift
	deltaMax   = int64(1)<<(deltaBits-1) - 1
	deltaMin   = -int64(1) << (deltaBits - 1)
	wideMax    = int64(1)<<31 - 1
	wideMin    = -int64(1) << 31
)

// chunkWords is the fixed chunk capacity (1<<15 words = 128 KB encoded,
// at most 512 KB decoded): the unit of the context poll, the failpoint
// and SkipReport's chunk counts, and the size of a decoded buffer that
// exists once (a lone consumer's slab, the Subsequence scratch). DESIGN.md
// Sec. 12's ladder chose it: from 1<<16 a co-run sweep's peak RSS falls
// ~30% at no measured time cost; below 1<<15 a serve workload's rises.
const chunkWords = 1 << 15

// slabAccesses sizes every decoded buffer that exists several times at
// once (64 KB of mem.Access): the slabs of a ring with more than one
// consumer and each stream's decode buffer in an interleave. The cursor
// fills such a buffer mid-chunk, so it is decoupled from the encoding;
// DESIGN.md Sec. 12's ladder row for it is the measurement.
const slabAccesses = 1 << 12

// chunk is one segment of the encoded word stream plus the self-contained
// decode header stamped at seal time. The header makes every chunk
// decodable in isolation — base is the block-delta state the first
// record's delta applies to, so a cursor decodes each chunk from its own
// header without threading lastBlock through the chunks before it
// (DESIGN.md Sec. 11; traces are process-lifetime only, so the header
// needs no on-disk form or version negotiation).
type chunk struct {
	words []word
	base  uint64 // lastBlock before the chunk's first record
}

// sizeBytes returns the chunk's encoded footprint.
func (c *chunk) sizeBytes() uint64 { return uint64(len(c.words)) * wordBytes }

// Recorder encodes an LLC-bound access stream. Built with NewRecorder it
// is a mem.Sink that filters every access through fresh L1/L2 upper levels
// first — the configuration a simulation recording uses; NewRawRecorder
// omits the filter for codec tests and fuzzing. Finish seals the stream
// into an immutable Trace; a recorder dropped before Finish (a cancelled
// recording) is ordinary garbage. A Recorder is single-goroutine, like
// the application execution that feeds it.
type Recorder struct {
	upper *cache.UpperLevels
	limit int64 // encode at most this many accesses; 0 = unlimited

	cur       []word
	chunks    []chunk
	lastBlock uint64
	curBase   uint64 // lastBlock when the current chunk opened
	pcs       []uint32
	pcIdx     map[uint32]word
	lastPC    uint32
	lastIdx   word
	havePC    bool
	n         int64
	ramBytes  int64

	ctxDone <-chan struct{} // non-nil: poll for cancellation while recording
	ctx     context.Context
	poll    int
}

// NewRecorder creates a recorder whose Access method filters through L1/L2
// levels of the given geometry before encoding, mirroring a Hierarchy's
// upper half.
func NewRecorder(cfg cache.HierarchyConfig) (*Recorder, error) {
	upper, err := cache.NewUpperLevels(cfg)
	if err != nil {
		return nil, err
	}
	r := NewRawRecorder()
	r.upper = &upper
	return r, nil
}

// NewRawRecorder creates a recorder with no upper-level filter: every
// access passed to Access (or Record) is encoded.
func NewRawRecorder() *Recorder {
	return &Recorder{pcIdx: make(map[uint32]word)}
}

// SetContext attaches a cancellation context: Access polls it every
// ctxPollInterval accesses and, once it is cancelled, unwinds the
// application execution with the PanicAbort sentinel (the caller driving
// app.Run must recover it — sim.RecordTraceNCtx does). A nil or
// non-cancellable context leaves the recorder's hot path exactly as
// before: one nil check per access.
func (r *Recorder) SetContext(ctx context.Context) {
	if ctx == nil {
		r.ctx, r.ctxDone = nil, nil
		return
	}
	r.ctx, r.ctxDone = ctx, ctx.Done()
	r.poll = ctxPollInterval
}

// pollCtx is the slow half of the per-access context check: reset the
// countdown and unwind if the context died.
func (r *Recorder) pollCtx() {
	r.poll = ctxPollInterval
	select {
	case <-r.ctxDone:
		PanicAbort(ContextErr(r.ctx))
	default:
	}
}

// SetLimit caps how many accesses the recorder encodes; the rest of the
// stream still runs the L1/L2 filter (keeping the recorded prefix exactly
// what an unlimited recording would start with) but is not stored. A
// capped trace is a PREFIX: sufficient for bounded-prefix consumers, not
// for full-result replays. n <= 0 means unlimited.
func (r *Recorder) SetLimit(n int64) { r.limit = n }

// Access implements mem.Sink: the access runs the L1/L2 filter and, if
// LLC-bound, is encoded. With no filter (NewRawRecorder) every access is
// encoded.
func (r *Recorder) Access(a mem.Access) {
	if r.ctxDone != nil {
		if r.poll--; r.poll <= 0 {
			r.pollCtx()
		}
	}
	if r.upper != nil && r.upper.Filter(a) {
		return
	}
	if r.limit > 0 && r.n >= r.limit {
		return
	}
	r.Record(a)
}

// Record encodes one access unconditionally.
func (r *Recorder) Record(a mem.Access) {
	block := cache.BlockAddr(a.Addr)
	w := word(a.Addr&low6Mask) << low6Shift
	if a.Write {
		w |= flagWrite
	}
	if a.Property {
		w |= flagProp
	}
	// PC dictionary with a last-PC memo: accesses arrive in runs from the
	// same static site, so the map is rarely consulted.
	var idx word
	haveIdx := false
	if r.havePC && a.PC == r.lastPC {
		idx, haveIdx = r.lastIdx, true
	} else if i, ok := r.pcIdx[a.PC]; ok {
		idx, haveIdx = i, true
	} else if len(r.pcs) < maxPCs {
		idx, haveIdx = word(len(r.pcs)), true
		r.pcIdx[a.PC] = idx
		r.pcs = append(r.pcs, a.PC)
	}
	if haveIdx {
		r.lastPC, r.lastIdx, r.havePC = a.PC, idx, true
	}
	if r.n == 0 {
		// Seed the delta chain (and so the first chunk's base) with the
		// first block: the jump from address 0 to the first array would
		// otherwise cost every recording a wide record.
		r.lastBlock = block
	}
	delta := int64(block - r.lastBlock)
	switch {
	case haveIdx && delta >= deltaMin && delta <= deltaMax:
		r.reserve(1)
		r.cur = append(r.cur, w|idx<<pcShift|word(delta)<<deltaShift)
	case haveIdx && delta >= wideMin && delta <= wideMax:
		r.reserve(2)
		r.cur = append(r.cur, w|wideIdx<<pcShift|idx<<deltaShift, word(delta))
	default:
		r.reserve(4)
		r.cur = append(r.cur, w|escapeIdx<<pcShift, a.PC, word(block), word(block>>32))
	}
	r.lastBlock = block
	r.n++
}

// reserve makes room for an n-word record in the current chunk, sealing
// early rather than splitting the record across a chunk boundary (chunks
// decode without carrying a partial record). A record opening an empty
// chunk makes the recorder's pre-record lastBlock the chunk's
// self-contained decode base (Record has not updated it yet here).
func (r *Recorder) reserve(n int) {
	if len(r.cur) > chunkWords-n {
		r.seal()
	}
	if r.cur == nil {
		r.cur = make([]word, 0, chunkWords)
	}
	if len(r.cur) == 0 {
		r.curBase = r.lastBlock
	}
}

// seal closes the current chunk, adding its bytes to the recording's
// size; the chunk carries its self-contained header (the decode base).
func (r *Recorder) seal() {
	if len(r.cur) == 0 {
		return
	}
	r.ramBytes += int64(len(r.cur)) * wordBytes
	r.chunks = append(r.chunks, chunk{words: r.cur, base: r.curBase})
	r.cur = nil
}

// Finish seals the recording into an immutable Trace carrying the upper
// levels' stats (zero for raw recorders) and the wall-clock of the traced
// application execution. The recorder must not be used afterwards. The
// error result is always nil: sealing in memory cannot fail.
func (r *Recorder) Finish(appTime time.Duration) (*Trace, error) {
	if n := len(r.cur); n > 0 && n < cap(r.cur) {
		// Right-size the tail: a sealed chunk keeps its backing array, and
		// SizeBytes (what a store's budget charges) counts len x wordBytes.
		// Without this every recording holds a full chunkWords array for
		// its last chunk — most of a bench-scale recording, which rarely
		// fills one chunk.
		r.cur = append(make([]word, 0, n), r.cur...)
	}
	r.seal()
	t := &Trace{
		chunks:   r.chunks,
		pcs:      r.pcs,
		n:        r.n,
		recorded: r.n,
		ramBytes: r.ramBytes,
		appTime:  appTime,
	}
	if r.upper != nil {
		t.l1, t.l2 = r.upper.L1.Stats, r.upper.L2.Stats
	}
	return t, nil
}

// Trace is an immutable recorded LLC-bound access stream plus the
// recording's context: the L1/L2 filter stats (identical for every replay,
// because the upper levels never see the LLC) and the application
// execution wall-clock. Replay methods are safe for concurrent use.
//
// A Trace is a plain in-memory value: Go's GC owns its lifetime, so a
// replay holding it runs to the end whatever its owner does meanwhile.
type Trace struct {
	chunks   []chunk
	pcs      []uint32
	n        int64
	recorded int64 // n, or the length of the recording a Subsequence was pruned from
	ramBytes int64
	l1, l2   cache.Stats
	appTime  time.Duration
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int64 { return t.n }

// RecordedLen returns the LLC access count of the application run the
// trace stands for: Len, except for a Subsequence, which keeps the length
// of the recording it was pruned from (the sampled estimator's N).
func (t *Trace) RecordedLen() int64 { return t.recorded }

// SizeBytes returns the encoded footprint — what a memory budget charges.
func (t *Trace) SizeBytes() int64 { return t.ramBytes }

// L1Stats returns the recording's L1 filter stats.
func (t *Trace) L1Stats() cache.Stats { return t.l1 }

// L2Stats returns the recording's L2 filter stats.
func (t *Trace) L2Stats() cache.Stats { return t.l2 }

// AppTime returns the wall-clock of the traced application execution.
func (t *Trace) AppTime() time.Duration { return t.appTime }

// Release does nothing: a trace is reclaimed by the GC once unreachable.
// It stays only because the frozen bench module still calls it; ROADMAP
// item 5(b) deletes it with the freeze.
func (t *Trace) Release() {}

// cursor is the engine's one chunk walker (DESIGN.md Sec. 11). Every
// replay shape — the broadcast producer, each stream of an interleave, a
// Subsequence build — advances through a trace by calling next, so the bounded-prefix limit,
// the per-chunk context poll, the trace.replay.chunk failpoint and the one
// decode kernel exist exactly once. A full-fidelity cursor is a masked one
// whose mask is fullMask. A cursor only reads the trace, so any number of
// them walk one trace concurrently.
type cursor struct {
	t     *Trace
	ctx   context.Context
	mask  PresenceMask // records outside it are pruned while decoding
	ci    int          // chunk being decoded
	wi    int          // next word of chunk ci; 0: the chunk is not yet opened
	last  uint64       // block-delta state before word wi
	done  int64        // recorded accesses consumed so far, pruned ones included
	limit int64
	rep   SkipReport // what the prune dropped and kept
}

// newCursor opens a cursor over the first limit accesses of t (limit <= 0:
// all) that delivers only records whose block congruence class mask marks.
func (t *Trace) newCursor(ctx context.Context, limit int64, mask PresenceMask) cursor {
	if limit <= 0 || limit > t.n {
		limit = t.n
	}
	return cursor{t: t, ctx: ctx, mask: mask, limit: limit}
}

// next decodes the cursor's next accesses into dst[:0], up to cap(dst)
// (which must be non-zero) and never past the end of the current chunk,
// and returns them in recording order; an empty result means the stream
// (or its limit) is exhausted. A buffer smaller than a chunk takes the
// chunk in pieces: the cursor resumes at its word index and delta state.
// It keeps walking past chunks whose every record pruned, so a non-empty
// result is always work to deliver. The context and the failpoint are
// checked, and SkipReport's chunk counts taken, once per chunk as it
// opens (at most 32768 accesses ≈ 2 ms of lone-policy replay): a
// cancelled replay returns within one chunk boundary while the decode
// kernel stays closure-free and check-free.
func (c *cursor) next(dst []mem.Access) ([]mem.Access, error) {
	dst = dst[:0]
	for len(dst) == 0 && c.done < c.limit && c.ci < len(c.t.chunks) {
		ch := &c.t.chunks[c.ci]
		if c.wi == 0 {
			if err := ContextErr(c.ctx); err != nil {
				return nil, err
			}
			if err := fail.Hit("trace.replay.chunk"); err != nil {
				return nil, fmt.Errorf("trace: replay: %w", err)
			}
			c.last = ch.base
			c.rep.ChunksDecoded++
			c.rep.BytesDecoded += ch.sizeBytes()
		}
		before := c.done
		dst, c.wi, c.last, c.done = c.t.decodeAppendMasked(ch.words, c.wi, c.last, dst, c.done, c.limit, c.mask)
		if c.wi == len(ch.words) {
			c.ci, c.wi = c.ci+1, 0
		}
		c.rep.AccessesDelivered += int64(len(dst))
		c.rep.AccessesPruned += c.done - before - int64(len(dst))
	}
	return dst, nil
}

// decodeAppendMasked is the engine's one decode kernel: it decodes a
// chunk's words from index i, whose records' block deltas apply to
// lastBlock, into dst, stopping once done reaches limit or dst reaches
// cap(dst), and returns the extended slice, the next word index, the delta
// state there and the progress count. Opened at i = 0 with the chunk's
// self-contained seed (chunk.base), a chunk decodes in isolation; chunks
// never split a wide or escape record (the recorder seals early), so the
// scan always stops on a record boundary. Every word is scanned (the delta
// chain demands it) but records whose block congruence class is outside
// mask drop before the PC lookup and the mem.Access materialization — the
// step that removes the decode share from the sampled tier's Amdahl bound
// (DESIGN.md Sec. 14); under fullMask nothing drops. done counts pruned
// records too, so the limit bounds the recorded prefix scanned, not the
// residue delivered.
func (t *Trace) decodeAppendMasked(words []word, i int, lastBlock uint64, dst []mem.Access, done, limit int64, mask PresenceMask) ([]mem.Access, int, uint64, int64) {
	for ; i < len(words) && done < limit && len(dst) < cap(dst); i++ {
		w := words[i]
		idx := w >> pcShift & pcMask
		var block uint64
		var pc uint32
		switch idx {
		case wideIdx:
			idx = w >> deltaShift & pcMask
			block = lastBlock + uint64(int32(words[i+1]))
			i++
		case escapeIdx:
			pc = words[i+1]
			block = uint64(words[i+2]) | uint64(words[i+3])<<32
			i += 3
		default:
			block = lastBlock + uint64(int32(w)>>deltaShift)
		}
		lastBlock = block
		done++
		if !mask.test(block) {
			continue
		}
		if idx != escapeIdx {
			pc = t.pcs[idx]
		}
		// Fill the record in place: an append of a composite literal builds
		// it in a stack temporary with byte-wide flag stores and copies it
		// out in one 16-byte move, which stalls on store forwarding.
		n := len(dst)
		dst = dst[:n+1]
		d := &dst[n]
		d.Addr = block<<cache.BlockBits | uint64(w>>low6Shift&low6Mask)
		d.PC = pc
		d.Hint = 0
		d.Write = w&flagWrite != 0
		d.Property = w&flagProp != 0
	}
	return dst, i, lastBlock, done
}

// Accesses decodes the first limit accesses (limit <= 0: all) into a
// slice; the error result is always nil. It deliberately shares nothing
// with the cursor and its kernel: it is the independent reference decoder
// the equivalence tests and fuzz targets compare every replay shape
// against.
func (t *Trace) Accesses(limit int64) ([]mem.Access, error) {
	if limit <= 0 || limit > t.n {
		limit = t.n
	}
	out := make([]mem.Access, 0, limit)
	for _, ch := range t.chunks {
		words := ch.words
		lastBlock := ch.base
		for i := 0; i < len(words) && int64(len(out)) < limit; {
			w := words[i]
			var block uint64
			var pc uint32
			if idx := (w >> pcShift) & pcMask; idx == escapeIdx {
				pc = words[i+1]
				block = uint64(words[i+3])<<32 | uint64(words[i+2])
				i += 4
			} else if idx == wideIdx {
				pc = t.pcs[(w>>deltaShift)&pcMask]
				block = lastBlock + uint64(int64(int32(words[i+1])))
				i += 2
			} else {
				pc = t.pcs[idx]
				block = lastBlock + uint64(int64(int32(w))>>deltaShift)
				i++
			}
			lastBlock = block
			out = append(out, mem.Access{
				Addr:     block<<cache.BlockBits | uint64((w>>low6Shift)&low6Mask),
				PC:       pc,
				Write:    w&flagWrite != 0,
				Property: w&flagProp != 0,
			})
		}
	}
	return out, nil
}
