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
// PC, write flag and Property-Array flag. It is a stream of 16-bit
// halfwords, and each dictionary PC (a static access site) keeps its own
// decode state: its last byte address and flags. Most accesses are one
// halfword — a 3-bit PC index and a 12-bit delta, in 4-byte units, from
// that site's last address, the flags repeating the site's — with two-,
// three- and seven-halfword forms for longer jumps, other flags, PCs past
// the first eight and PCs past the dictionary. Records accumulate in
// fixed-count in-memory chunks, each carrying its sites' state; a
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
const ctxPollInterval = chunkRecords

// halfword is the unit of the encoded stream; halfwordBytes is its size,
// the factor a chunk's records are charged in (budgets, SizeBytes).
type halfword = uint16

const halfwordBytes = 2

// Every record opens with a head halfword, and a long record's further
// halfwords follow its head. Heads take three shapes (LSB first):
//
//	short  (1 halfword)  bit 0 clear; bits 1-3 a PC dictionary index 0-7;
//	                     bits 4-15 a signed delta in 4-byte units; the
//	                     flags repeat that PC's last
//	medium (2 halfwords) bit 0 set, bit 4 clear; bits 1-3 the index 0-7;
//	                     bit 5 the write flag, bit 6 the Property-Array
//	                     flag; bits 7-15 the high 9 bits of a signed
//	                     25-bit byte delta, the next halfword its low 16
//	rare                 bits 0 and 4 set; bit 1 picks the form; bits 2-3
//	                     the flags; bits 6-10 a PC dictionary index 0-30,
//	                     or noIdx
//
// A delta is from the named PC's last address. The rare forms are
//
//	wide   (3 halfwords) bit 1 clear; a signed 32-bit byte delta, low
//	                     halfword first
//	escape (7 halfwords) bit 1 set; the full PC and the full address, low
//	                     halfword first; the index may be noIdx
//
// Every record of a dictionary PC, escape included, updates that PC's
// address and flags. ligra's LLC-bound streams use at most eight static
// PCs, each striding or scattering within one or two arrays, so most
// records are short and nearly all the rest medium; a PC's first record
// (its state starts at address 0, no flags) is wide. The escape form
// covers PCs past the dictionary and jumps past 32 bits, so the codec
// stays total for arbitrary input (the fuzz targets feed it adversarial
// streams).
const (
	flagWrite = 1 << 0
	flagProp  = 1 << 1
	flagsMask = flagWrite | flagProp

	longBit     = 1 << 0
	shortPCs    = 8 // the indices a short or medium record can name
	shortShift  = 4 // short: the delta in 4-byte units
	shortMin    = -1 << (16 - shortShift - 1)
	shortMax    = 1<<(16-shortShift-1) - 1
	mediumFlags = 5 // medium: the flags
	mediumShift = 7 // medium: the delta's high bits
	mediumMin   = -1 << (16 - mediumShift + 16 - 1)
	mediumMax   = 1<<(16-mediumShift+16-1) - 1
	rareBits    = 0x11 // bits 0 and 4 of a wide or escape head
	escapeBit   = 1 << 1
	rareFlags   = 2 // rare: the flags, bits 2-3
	rareShift   = 6 // rare: the dictionary index
	noIdx       = 31
	maxPCs      = noIdx // dictionary indices 0..30
	wideMin     = -1 << 31
	wideMax     = 1<<31 - 1
)

// chunkRecords is the fixed chunk length in records (2^15 accesses: about
// 72 KB encoded at bench scales, 512 KB decoded): the unit of the context
// poll, the failpoint and SkipReport's chunk counts, and the size of a
// decoded buffer that exists once (a lone consumer's slab, the
// Subsequence scratch). DESIGN.md Sec. 12's ladder chose it: from 2^16 a
// co-run sweep's peak RSS falls ~30% at no measured time cost; below 2^15
// a serve workload's rises.
const chunkRecords = 1 << 15

// slabAccesses sizes every decoded buffer that exists several times at
// once (64 KB of mem.Access): the slabs of a ring with more than one
// consumer and each stream's decode buffer in an interleave. The cursor
// fills such a buffer mid-chunk, so it is decoupled from the encoding;
// DESIGN.md Sec. 12's ladder row for it is the measurement.
const slabAccesses = 1 << 12

// sites is the codec's per-site state: each dictionary PC's last byte
// address and its last flags. Index 31 (noIdx) is a slot an
// undictionaried escape writes and nothing reads, so every index a head
// can carry is in range.
type sites struct {
	addr [32]uint64
	flag [32]uint8
}

// chunk is one segment of the encoded stream plus the self-contained
// decode header taken when it opened: the sites' state before its first
// record, for the dictionary PCs known then (later ones start at zero, as
// they do in the recorder). The header makes every chunk decodable in
// isolation — a cursor decodes each chunk from its own header without
// threading state through the chunks before it (DESIGN.md Sec. 11; traces
// are process-lifetime only, so the header needs no on-disk form or
// version negotiation).
type chunk struct {
	hw   []halfword
	addr []uint64 // each known site's last address before the first record
	flag []uint8  // and its last flags
}

// siteBytes is what the header charges per known site.
const siteBytes = 8 + 1

// sizeBytes returns the chunk's encoded footprint, header included.
func (c *chunk) sizeBytes() uint64 {
	return uint64(len(c.hw))*halfwordBytes + uint64(len(c.addr))*siteBytes
}

// open returns the decode state the chunk's first record applies to.
func (c *chunk) open() sites {
	var s sites
	copy(s.addr[:], c.addr)
	copy(s.flag[:], c.flag)
	return s
}

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

	buf      []halfword // the open chunk's records; sealing copies them out
	recs     int        // records in the open chunk
	open     chunk      // the open chunk's header
	chunks   []chunk
	st       sites
	pcs      []uint32
	pcIdx    map[uint32]uint
	lastPC   uint32
	lastIdx  uint
	havePC   bool
	n        int64
	ramBytes int64

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
	return &Recorder{pcIdx: make(map[uint32]uint)}
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
	if r.recs == 0 {
		// Open a chunk: its header is the sites' state now.
		if r.buf == nil {
			r.buf = make([]halfword, 0, 2*chunkRecords)
		}
		n := len(r.pcs)
		r.open = chunk{addr: make([]uint64, n), flag: make([]uint8, n)}
		copy(r.open.addr, r.st.addr[:])
		copy(r.open.flag, r.st.flag[:])
	}
	var f uint8
	if a.Write {
		f |= flagWrite
	}
	if a.Property {
		f |= flagProp
	}
	// PC dictionary with a last-PC memo: accesses arrive in runs from the
	// same static site, so the map is rarely consulted.
	idx := uint(noIdx)
	if r.havePC && a.PC == r.lastPC {
		idx = r.lastIdx
	} else if i, ok := r.pcIdx[a.PC]; ok {
		idx = i
	} else if len(r.pcs) < maxPCs {
		idx = uint(len(r.pcs))
		r.pcIdx[a.PC] = idx
		r.pcs = append(r.pcs, a.PC)
	}
	if idx != noIdx {
		r.lastPC, r.lastIdx, r.havePC = a.PC, idx, true
	}
	delta := int64(a.Addr - r.st.addr[idx])
	rare := rareBits | halfword(f)<<rareFlags | halfword(idx)<<rareShift
	switch {
	case idx < shortPCs && f == r.st.flag[idx] && delta&3 == 0 && delta>>2 >= shortMin && delta>>2 <= shortMax:
		r.buf = append(r.buf, halfword(delta>>2)<<shortShift|halfword(idx)<<1)
	case idx < shortPCs && delta >= mediumMin && delta <= mediumMax:
		r.buf = append(r.buf, halfword(delta>>16)<<mediumShift|halfword(f)<<mediumFlags|halfword(idx)<<1|longBit, halfword(delta))
	case idx != noIdx && delta >= wideMin && delta <= wideMax:
		r.buf = append(r.buf, rare, halfword(delta), halfword(delta>>16))
	default:
		r.buf = append(r.buf, rare|escapeBit, halfword(a.PC), halfword(a.PC>>16),
			halfword(a.Addr), halfword(a.Addr>>16), halfword(a.Addr>>32), halfword(a.Addr>>48))
	}
	r.st.addr[idx], r.st.flag[idx] = a.Addr, f
	r.n++
	if r.recs++; r.recs == chunkRecords {
		r.seal()
	}
}

// seal closes the open chunk as an exact-size copy of the scratch buffer,
// so what a trace keeps allocated is what SizeBytes charges, and adds its
// bytes to the recording's size.
func (r *Recorder) seal() {
	if r.recs == 0 {
		return
	}
	r.open.hw = append(make([]halfword, 0, len(r.buf)), r.buf...)
	r.ramBytes += int64(r.open.sizeBytes())
	r.chunks = append(r.chunks, r.open)
	r.open, r.buf, r.recs = chunk{}, r.buf[:0], 0
}

// Finish seals the recording into an immutable Trace carrying the upper
// levels' stats (zero for raw recorders) and the wall-clock of the traced
// application execution. The recorder must not be used afterwards. The
// error result is always nil: sealing in memory cannot fail.
func (r *Recorder) Finish(appTime time.Duration) (*Trace, error) {
	r.seal()
	t := &Trace{
		chunks:   r.chunks,
		n:        r.n,
		recorded: r.n,
		ramBytes: r.ramBytes,
		appTime:  appTime,
	}
	copy(t.pcs[:], r.pcs)
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
	pcs      [32]uint32 // the PC dictionary; a head's index is always in range
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
	hi    int          // next halfword of chunk ci; 0: the chunk is not yet opened
	st    sites        // decode state before halfword hi
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
// chunk in pieces: the cursor resumes at its halfword index and decode
// state. It keeps walking past chunks whose every record pruned, so a
// non-empty result is always work to deliver. The context and the
// failpoint are checked, and SkipReport's chunk counts taken, once per
// chunk as it opens (at most 32768 accesses ≈ 2 ms of lone-policy
// replay): a cancelled replay returns within one chunk boundary while the
// decode kernel stays closure-free and check-free.
func (c *cursor) next(dst []mem.Access) ([]mem.Access, error) {
	dst = dst[:0]
	for len(dst) == 0 && c.done < c.limit && c.ci < len(c.t.chunks) {
		ch := &c.t.chunks[c.ci]
		if c.hi == 0 {
			if err := ContextErr(c.ctx); err != nil {
				return nil, err
			}
			if err := fail.Hit("trace.replay.chunk"); err != nil {
				return nil, fmt.Errorf("trace: replay: %w", err)
			}
			c.st = ch.open()
			c.rep.ChunksDecoded++
			c.rep.BytesDecoded += ch.sizeBytes()
		}
		before := c.done
		dst, c.hi, c.done = c.t.decodeAppendMasked(ch.hw, c.hi, &c.st, dst, c.done, c.limit, c.mask)
		if c.hi == len(ch.hw) {
			c.ci, c.hi = c.ci+1, 0
		}
		c.rep.AccessesDelivered += int64(len(dst))
		c.rep.AccessesPruned += c.done - before - int64(len(dst))
	}
	return dst, nil
}

// decodeAppendMasked is the engine's one decode kernel: it decodes a
// chunk's halfwords from index i, whose records apply to the decode state
// st (updated in place), into dst, stopping once done reaches limit or
// dst reaches cap(dst), and returns the extended slice, the next halfword
// index and the progress count. Opened at i = 0 with the chunk's
// self-contained header (chunk.open), a chunk decodes in isolation; a
// chunk holds whole records, so the scan always stops on a record
// boundary. Every record is scanned (the per-site state demands it) but
// records whose block congruence class is outside mask drop before the
// mem.Access materialization — the step that removes the decode share
// from the sampled tier's Amdahl bound (DESIGN.md Sec. 14); under fullMask
// nothing drops. done counts pruned records too, so the limit bounds the
// recorded prefix scanned, not the residue delivered. A record's form is
// a branch, which mispredicts where a site scatters over an array; the
// branch-free kernels DESIGN.md Sec. 11 measured were slower at every
// scale.
func (t *Trace) decodeAppendMasked(hw []halfword, i int, st *sites, dst []mem.Access, done, limit int64, mask PresenceMask) ([]mem.Access, int, int64) {
	for ; i < len(hw) && done < limit && len(dst) < cap(dst); i++ {
		h := uint64(hw[i])
		var addr uint64
		var pc uint32
		var f uint8
		if h&longBit == 0 {
			idx := h >> 1 & (shortPCs - 1)
			addr = st.addr[idx] + uint64(int64(h<<48)>>(48+shortShift))<<2
			st.addr[idx] = addr
			f, pc = st.flag[idx], t.pcs[idx]
		} else if h&rareBits != rareBits {
			idx := h >> 1 & (shortPCs - 1)
			addr = st.addr[idx] + (uint64(int64(h<<48)>>(48+mediumShift))<<16 | uint64(hw[i+1]))
			f = uint8(h>>mediumFlags) & flagsMask
			st.addr[idx], st.flag[idx] = addr, f
			pc = t.pcs[idx]
			i++
		} else {
			f = uint8(h>>rareFlags) & flagsMask
			idx := h >> rareShift & 31
			if h&escapeBit == 0 {
				addr = st.addr[idx] + uint64(int32(uint32(hw[i+1])|uint32(hw[i+2])<<16))
				pc = t.pcs[idx]
				i += 2
			} else {
				pc = uint32(hw[i+1]) | uint32(hw[i+2])<<16
				addr = uint64(hw[i+3]) | uint64(hw[i+4])<<16 | uint64(hw[i+5])<<32 | uint64(hw[i+6])<<48
				i += 6
			}
			st.addr[idx], st.flag[idx] = addr, f
		}
		done++
		if !mask.test(addr >> cache.BlockBits) {
			continue
		}
		// Fill the record in place: an append of a composite literal builds
		// it in a stack temporary with byte-wide flag stores and copies it
		// out in one 16-byte move, which stalls on store forwarding.
		n := len(dst)
		dst = dst[:n+1]
		d := &dst[n]
		d.Addr = addr
		d.PC = pc
		d.Hint = 0
		d.Write = f&flagWrite != 0
		d.Property = f&flagProp != 0
	}
	return dst, i, done
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
		// This chunk's sites, from its header alone.
		last := make(map[uint32]uint64) // dictionary index -> last address
		write := make(map[uint32]bool)
		prop := make(map[uint32]bool)
		for i, a := range ch.addr {
			last[uint32(i)] = a
			write[uint32(i)] = ch.flag[i]&flagWrite != 0
			prop[uint32(i)] = ch.flag[i]&flagProp != 0
		}
		hw := ch.hw
		for i := 0; i < len(hw) && int64(len(out)) < limit; {
			h := uint32(hw[i])
			var a mem.Access
			var idx uint32
			switch {
			case h&1 == 0: // short
				idx = h >> 1 & 7
				a.Addr = last[idx] + uint64(int64(int16(h))>>4*4)
				a.PC, a.Write, a.Property = t.pcs[idx], write[idx], prop[idx]
				i++
			case h&0x10 == 0: // medium
				idx = h >> 1 & 7
				a.Addr = last[idx] + uint64(int64(int16(h))>>7*65536+int64(hw[i+1]))
				a.PC, a.Write, a.Property = t.pcs[idx], h>>5&1 != 0, h>>6&1 != 0
				i += 2
			default:
				a.Write, a.Property = h>>2&1 != 0, h>>3&1 != 0
				idx = h >> 6 & 31
				if h&2 != 0 { // escape
					a.PC = uint32(hw[i+1]) + uint32(hw[i+2])<<16
					for k := 6; k >= 3; k-- {
						a.Addr = a.Addr<<16 | uint64(hw[i+k])
					}
					i += 7
				} else { // wide
					a.PC = t.pcs[idx]
					a.Addr = last[idx] + uint64(int64(int32(uint32(hw[i+2])<<16|uint32(hw[i+1]))))
					i += 3
				}
			}
			last[idx], write[idx], prop[idx] = a.Addr, a.Write, a.Property
			out = append(out, a)
		}
	}
	return out, nil
}
