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
// for anything else. Words accumulate in fixed-size chunks, resident
// unless the recorder is capped (SetMemoryOverride); chunks beyond a cap
// spill to an unlinked temporary file that is read back with pread, so
// many goroutines can replay one spilled trace concurrently. The package
// makes no memory decisions of its own: what a process retains is its
// recordings' owner's budget (the exp store, DESIGN.md Sec. 10).
package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
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
// factor every byte count of the codec (budgets, spill offsets, SizeBytes)
// is charged in.
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

// chunkWords is the fixed chunk capacity (1<<16 words = 256KB): large
// enough that per-chunk overheads vanish, small enough that a replay's
// spill read-back buffer and the encoder's working set stay cache- and
// GC-friendly even for multi-hundred-million-access traces.
const chunkWords = 1 << 16

// memoryInUse tracks the encoded trace bytes resident in RAM across the
// whole process. The trace package decides nothing by it: a recording
// stays resident unless its creator caps it (Recorder.SetMemoryOverride),
// and what a process retains is bounded by whoever owns the recordings.
var memoryInUse atomic.Int64

// MemoryInUse returns the encoded trace bytes currently resident in RAM
// across all live traces (observability and tests).
func MemoryInUse() int64 { return memoryInUse.Load() }

// chunk is one segment of the encoded word stream: resident (words != nil)
// or spilled (n words at byte offset off in the trace's spill file), plus
// the self-contained decode header stamped at seal time. The header makes
// every chunk decodable in isolation — base is the block-delta state the
// first record's delta applies to, so a cursor decodes each chunk from its
// own header without threading lastBlock through the chunks before it.
// The header always stays resident; only the words spill (DESIGN.md
// Sec. 11; traces are process-lifetime only, so the header needs no
// on-disk form or version negotiation).
type chunk struct {
	words []word
	off   int64
	n     int    // word count (resident and spilled alike)
	base  uint64 // lastBlock before the chunk's first record
}

// sizeBytes returns the chunk's encoded footprint.
func (c *chunk) sizeBytes() uint64 { return uint64(c.n) * wordBytes }

// Recorder encodes an LLC-bound access stream. Built with NewRecorder it
// is a mem.Sink that filters every access through fresh L1/L2 upper levels
// first — the configuration a simulation recording uses; NewRawRecorder
// omits the filter for codec tests and fuzzing. Finish seals the stream
// into an immutable Trace. A Recorder is single-goroutine, like the
// application execution that feeds it.
type Recorder struct {
	upper  *cache.UpperLevels
	budget int64 // resident-bytes cap; 0 = none (every chunk stays resident)
	limit  int64 // encode at most this many accesses; 0 = unlimited

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
	spill     *os.File
	spillOff  int64
	spillBuf  []byte // reused encode buffer for spilled chunks
	err       error

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

// SetMemoryOverride caps this recorder's resident bytes: chunks past the
// cap spill to a temp file (tests exercise the spill path
// deterministically this way); n <= 0 means "spill everything".
func (r *Recorder) SetMemoryOverride(n int64) {
	if n == 0 {
		n = -1
	}
	r.budget = n
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

// seal closes the current chunk: it stays resident unless the recorder's
// cap (SetMemoryOverride) is exhausted, in which case it is appended to
// the spill file and its buffer reused. Either way the chunk carries its
// self-contained header (the decode base), which always stays resident.
func (r *Recorder) seal() {
	if len(r.cur) == 0 {
		return
	}
	hdr := chunk{n: len(r.cur), base: r.curBase}
	bytes := int64(len(r.cur)) * wordBytes
	if r.budget == 0 || r.ramBytes+bytes <= r.budget {
		memoryInUse.Add(bytes)
		r.ramBytes += bytes
		hdr.words = r.cur
		r.chunks = append(r.chunks, hdr)
		r.cur = nil
		return
	}
	r.spillChunk(hdr)
}

// spillChunk writes the current chunk to the spill file (created lazily
// and unlinked immediately, so the space is reclaimed as soon as the last
// descriptor closes even if the process dies). hdr carries the chunk's
// self-contained header, which stays resident; only the words hit disk.
func (r *Recorder) spillChunk(hdr chunk) {
	if r.err != nil {
		r.cur = r.cur[:0]
		return
	}
	if r.spill == nil {
		f, err := os.CreateTemp("", "grasp-trace-*.spill")
		if err != nil {
			r.err = fmt.Errorf("trace: spill: %w", err)
			r.cur = r.cur[:0]
			return
		}
		// Best-effort unlink-while-open (POSIX); if the OS refuses, the
		// file is removed when the trace is released.
		os.Remove(f.Name())
		r.spill = f
	}
	if cap(r.spillBuf) < len(r.cur)*wordBytes {
		r.spillBuf = make([]byte, chunkWords*wordBytes)
	}
	buf := r.spillBuf[:len(r.cur)*wordBytes]
	for i, w := range r.cur {
		binary.LittleEndian.PutUint32(buf[i*wordBytes:], w)
	}
	if err := fail.Hit("trace.spill.write"); err != nil {
		r.err = fmt.Errorf("trace: spill: %w", err)
		r.cur = r.cur[:0]
		return
	}
	if _, err := r.spill.WriteAt(buf, r.spillOff); err != nil {
		r.err = fmt.Errorf("trace: spill: %w", err)
		r.cur = r.cur[:0]
		return
	}
	hdr.off = r.spillOff
	r.chunks = append(r.chunks, hdr)
	r.spillOff += int64(len(buf))
	r.cur = r.cur[:0]
}

// Abandon discards an unfinished recording: resident bytes leave
// MemoryInUse and the spill file closes. Callers that unwound the
// traced application before Finish (a cancelled recording) must call it —
// a Recorder has no finalizer, only the Trace minted by Finish does. The
// recorder must not be used afterwards.
func (r *Recorder) Abandon() {
	memoryInUse.Add(-r.ramBytes)
	r.ramBytes = 0
	r.chunks = nil
	r.cur = nil
	if r.spill != nil {
		os.Remove(r.spill.Name()) // no-op where unlink-at-create succeeded
		r.spill.Close()
		r.spill = nil
	}
}

// Finish seals the recording into an immutable Trace carrying the upper
// levels' stats (zero for raw recorders) and the wall-clock of the traced
// application execution. The recorder must not be used afterwards.
func (r *Recorder) Finish(appTime time.Duration) (*Trace, error) {
	if n := len(r.cur); n > 0 && n < cap(r.cur) {
		// Right-size the tail: a sealed chunk keeps its backing array, and
		// SizeBytes (what a store's budget charges) counts len x wordBytes. Without this every recording
		// pins a full chunkWords array for its last chunk — most of a
		// bench-scale recording, which rarely fills one chunk.
		r.cur = append(make([]word, 0, n), r.cur...)
	}
	r.seal()
	if r.err != nil {
		if r.spill != nil {
			// Mirror Release: no Trace will exist to clean up, so drop the
			// spill here (the Remove is a no-op where unlink-at-create
			// already succeeded).
			os.Remove(r.spill.Name())
			r.spill.Close()
		}
		memoryInUse.Add(-r.ramBytes)
		return nil, r.err
	}
	t := &Trace{
		chunks:   r.chunks,
		pcs:      r.pcs,
		n:        r.n,
		recorded: r.n,
		ramBytes: r.ramBytes,
		spilled:  r.spillOff,
		spill:    r.spill,
		appTime:  appTime,
	}
	if r.upper != nil {
		t.l1, t.l2 = r.upper.L1.Stats, r.upper.L2.Stats
	}
	// A trace dropped without Release (a test, an abandoned value) still
	// gives back its resources: the finalizer returns the resident bytes
	// to MemoryInUse and drops the spill descriptor once it is unreachable.
	runtime.SetFinalizer(t, (*Trace).Release)
	return t, nil
}

// Trace is an immutable recorded LLC-bound access stream plus the
// recording's context: the L1/L2 filter stats (identical for every replay,
// because the upper levels never see the LLC) and the application
// execution wall-clock. Replay methods are safe for concurrent use.
//
// Lifecycle: the creator owns one implicit reference dropped by Release;
// replayers that may race with Release (a session evicting cached
// recordings under a byte budget) bracket their reads with Pin/Unpin. The
// trace's resources — resident-byte accounting and the spill file — are
// destroyed when the owner reference is gone AND no pins remain.
type Trace struct {
	chunks    []chunk
	pcs       []uint32
	n         int64
	recorded  int64 // n, or the length of the recording a Subsequence was pruned from
	ramBytes  int64
	spilled   int64
	spill     *os.File
	l1, l2    cache.Stats
	appTime   time.Duration
	pins      atomic.Int64
	released  atomic.Bool
	destroyed atomic.Bool
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int64 { return t.n }

// RecordedLen returns the LLC access count of the application run the
// trace stands for: Len, except for a Subsequence, which keeps the length
// of the recording it was pruned from (the sampled estimator's N).
func (t *Trace) RecordedLen() int64 { return t.recorded }

// SizeBytes returns the encoded footprint (resident + spilled).
func (t *Trace) SizeBytes() int64 { return t.ramBytes + t.spilled }

// ResidentBytes returns only the RAM-resident part of the encoding — the
// quantity memory budgets should charge (spilled bytes live on disk).
func (t *Trace) ResidentBytes() int64 { return t.ramBytes }

// SpilledBytes returns how much of the encoding lives in the spill file.
func (t *Trace) SpilledBytes() int64 { return t.spilled }

// L1Stats returns the recording's L1 filter stats.
func (t *Trace) L1Stats() cache.Stats { return t.l1 }

// L2Stats returns the recording's L2 filter stats.
func (t *Trace) L2Stats() cache.Stats { return t.l2 }

// AppTime returns the wall-clock of the traced application execution.
func (t *Trace) AppTime() time.Duration { return t.appTime }

// Release drops the owner reference: once no Pin is outstanding the
// trace's resident bytes leave MemoryInUse and its spill file closes. It is idempotent and runs automatically when the trace becomes
// unreachable; replaying after the resources are gone returns an error.
func (t *Trace) Release() {
	if !t.released.CompareAndSwap(false, true) {
		return
	}
	runtime.SetFinalizer(t, nil)
	if t.pins.Load() == 0 {
		t.destroy()
	}
}

// Pin guards a replay against a concurrent Release (cached-recording
// eviction): while the pin is held the trace's chunks and spill file stay
// valid even if the owner releases it. It reports false when the owner
// reference is already gone — the caller must obtain (re-record) a fresh
// trace instead. Every successful Pin must be paired with one Unpin.
func (t *Trace) Pin() bool {
	t.pins.Add(1)
	if t.released.Load() {
		t.Unpin()
		return false
	}
	return true
}

// Unpin drops a Pin reference, destroying the trace's resources if the
// owner has released it and this was the last pin.
func (t *Trace) Unpin() {
	if t.pins.Add(-1) == 0 && t.released.Load() {
		t.destroy()
	}
}

// destroy reclaims the trace's resources exactly once: Release and the
// last Unpin can both observe the terminal state, so the actual teardown
// is CAS-guarded.
func (t *Trace) destroy() {
	if !t.destroyed.CompareAndSwap(false, true) {
		return
	}
	memoryInUse.Add(-t.ramBytes)
	if t.spill != nil {
		os.Remove(t.spill.Name()) // no-op where unlink-at-create succeeded
		t.spill.Close()
	}
}

// errReleased is returned when replaying a trace whose resources have been
// reclaimed (released with no pins outstanding).
var errReleased = fmt.Errorf("trace: replay of a released trace")

// materialize returns the words of chunk ci: resident chunks are returned as-is
// (shared, read-only); spilled chunks are read into the caller's scratch
// buffers via pread, so concurrent replays never contend.
func (t *Trace) materialize(ci int, scratch *[]word, buf *[]byte) ([]word, error) {
	c := &t.chunks[ci]
	if c.words != nil {
		return c.words, nil
	}
	if t.destroyed.Load() {
		return nil, errReleased
	}
	need := c.n * wordBytes
	if cap(*buf) < need {
		*buf = make([]byte, chunkWords*wordBytes)
	}
	b := (*buf)[:need]
	if err := fail.Hit("trace.spill.read"); err != nil {
		return nil, fmt.Errorf("trace: spill read: %w", err)
	}
	if _, err := t.spill.ReadAt(b, c.off); err != nil {
		return nil, fmt.Errorf("trace: spill read: %w", err)
	}
	if cap(*scratch) < c.n {
		*scratch = make([]word, chunkWords)
	}
	words := (*scratch)[:c.n]
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(b[i*wordBytes:])
	}
	return words, nil
}

// cursor is the engine's one chunk walker (DESIGN.md Sec. 11). Every
// replay shape — the broadcast producer, each stream of an interleave, a
// Subsequence build — advances through a trace by calling next, so the bounded-prefix limit,
// the per-chunk context poll, the trace.replay.chunk failpoint, spill
// read-back and the one decode kernel exist exactly once. A full-fidelity
// cursor is a masked one whose mask is fullMask. Cursors never share
// scratch space, so any number of them read one (possibly spilled) trace
// concurrently.
type cursor struct {
	t       *Trace
	ctx     context.Context
	mask    PresenceMask // records outside it are pruned while decoding
	ci      int          // next chunk to decode
	done    int64        // recorded accesses consumed so far, pruned ones included
	limit   int64
	rep     SkipReport // what the prune dropped and kept
	scratch []word
	rbuf    []byte
}

// newCursor opens a cursor over the first limit accesses of t (limit <= 0:
// all) that delivers only records whose block congruence class mask marks.
func (t *Trace) newCursor(ctx context.Context, limit int64, mask PresenceMask) (cursor, error) {
	if t.destroyed.Load() {
		return cursor{}, errReleased
	}
	if limit <= 0 || limit > t.n {
		limit = t.n
	}
	return cursor{t: t, ctx: ctx, mask: mask, limit: limit}, nil
}

// next decodes the cursor's next chunk into dst[:0] and returns the
// decoded accesses, in recording order; an empty result means the stream
// (or its limit) is exhausted. The cursor keeps walking past chunks whose
// every record pruned, so a non-empty result is always work to deliver.
// The context and the failpoint are checked once per chunk (65536 words ≈
// half a million cycles of LLC simulation): a cancelled replay returns
// within one chunk boundary while the decode kernel stays closure-free and
// check-free.
func (c *cursor) next(dst []mem.Access) ([]mem.Access, error) {
	dst = dst[:0]
	for len(dst) == 0 && c.done < c.limit && c.ci < len(c.t.chunks) {
		if err := ContextErr(c.ctx); err != nil {
			return nil, err
		}
		if err := fail.Hit("trace.replay.chunk"); err != nil {
			return nil, fmt.Errorf("trace: replay: %w", err)
		}
		ch := &c.t.chunks[c.ci]
		words, err := c.t.materialize(c.ci, &c.scratch, &c.rbuf)
		if err != nil {
			return nil, err
		}
		c.ci++
		before := c.done
		dst, c.done = c.t.decodeAppendMasked(words, dst, ch.base, c.done, c.limit, c.mask)
		c.rep.ChunksDecoded++
		c.rep.BytesDecoded += ch.sizeBytes()
		c.rep.AccessesDelivered += int64(len(dst))
		c.rep.AccessesPruned += c.done - before - int64(len(dst))
	}
	return dst, nil
}

// decodeAppendMasked is the engine's one decode kernel: it decodes one
// chunk's words into dst, stopping once done reaches limit, and returns
// the extended slice plus the progress count. base is the chunk's
// self-contained block-delta seed (chunk.base), so a chunk decodes in
// isolation; chunks never split a wide or escape record (the recorder
// seals early), so the scan always terminates on a record boundary. Every
// word is scanned (the delta chain demands it) but records whose block
// congruence class is outside mask drop before the PC lookup and the
// mem.Access materialization — the step that removes the decode share
// from the sampled tier's Amdahl bound (DESIGN.md Sec. 14); under fullMask
// nothing drops. done counts pruned records too, so the limit bounds the
// recorded prefix scanned, not the residue delivered.
func (t *Trace) decodeAppendMasked(words []word, dst []mem.Access, base uint64, done, limit int64, mask PresenceMask) ([]mem.Access, int64) {
	lastBlock := base
	for i := 0; i < len(words) && done < limit; i++ {
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
		if n == cap(dst) {
			dst = append(dst, mem.Access{})
		} else {
			dst = dst[:n+1]
		}
		d := &dst[n]
		d.Addr = block<<cache.BlockBits | uint64(w>>low6Shift&low6Mask)
		d.PC = pc
		d.Hint = 0
		d.Write = w&flagWrite != 0
		d.Property = w&flagProp != 0
	}
	return dst, done
}

// each decodes at most limit accesses (limit <= 0: all) through fn. It
// deliberately shares nothing with the cursor and its kernel: Accesses is
// the independent reference decoder the equivalence tests and fuzz targets
// compare every replay shape against.
func (t *Trace) each(limit int64, fn func(a mem.Access)) error {
	if t.destroyed.Load() {
		return errReleased
	}
	if limit <= 0 || limit > t.n {
		limit = t.n
	}
	var scratch []word
	var buf []byte
	var done int64
	for ci := range t.chunks {
		if done >= limit {
			break
		}
		words, err := t.materialize(ci, &scratch, &buf)
		if err != nil {
			return err
		}
		lastBlock := t.chunks[ci].base
		for i := 0; i < len(words) && done < limit; {
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
			fn(mem.Access{
				Addr:     block<<cache.BlockBits | uint64((w>>low6Shift)&low6Mask),
				PC:       pc,
				Write:    w&flagWrite != 0,
				Property: w&flagProp != 0,
			})
			done++
		}
	}
	return nil
}

// Accesses decodes the first limit accesses (limit <= 0: all) into a
// slice, for tests and equivalence checks.
func (t *Trace) Accesses(limit int64) ([]mem.Access, error) {
	n := t.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]mem.Access, 0, n)
	err := t.each(limit, func(a mem.Access) { out = append(out, a) })
	return out, err
}
