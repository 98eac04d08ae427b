package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/policy"
)

// kernelCase pairs a rewritten policy with its reference (reference_test.go).
type kernelCase struct {
	name     string
	pow2Ways bool // PLRU trees need a power-of-two associativity
	new, ref func(sets, ways uint32) cache.Policy
}

var kernelCases = []kernelCase{
	{name: "SRRIP", new: func(s, w uint32) cache.Policy { return policy.NewSRRIP(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefSRRIP(s, w) }},
	{name: "BRRIP", new: func(s, w uint32) cache.Policy { return policy.NewBRRIP(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefBRRIP(s, w) }},
	{name: "RRIP", new: func(s, w uint32) cache.Policy { return policy.NewDRRIP(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefDRRIP(s, w) }},
	{name: "DIP", new: func(s, w uint32) cache.Policy { return policy.NewDIP(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefDIP(s, w) }},
	{name: "PLRU", pow2Ways: true, new: func(s, w uint32) cache.Policy { return policy.NewPLRU(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefPLRU(s, w) }},
	{name: "SHiP-MEM", new: func(s, w uint32) cache.Policy { return policy.NewSHiP(s, w, false) },
		ref: func(s, w uint32) cache.Policy { return newRefSHiPMem(s, w) }},
	{name: "SHiP-PC", new: func(s, w uint32) cache.Policy { return policy.NewSHiP(s, w, true) },
		ref: func(s, w uint32) cache.Policy { return newRefSHiPPC(s, w) }},
	{name: "Hawkeye", new: func(s, w uint32) cache.Policy { return policy.NewHawkeye(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefHawkeye(s, w) }},
	{name: "Leeway", new: func(s, w uint32) cache.Policy { return policy.NewLeeway(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefLeeway(s, w) }},
	{name: "PIN-25", new: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 25) },
		ref: func(s, w uint32) cache.Policy { return newRefXMem(s, w, 25) }},
	{name: "PIN-50", new: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 50) },
		ref: func(s, w uint32) cache.Policy { return newRefXMem(s, w, 50) }},
	{name: "PIN-75", new: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 75) },
		ref: func(s, w uint32) cache.Policy { return newRefXMem(s, w, 75) }},
	{name: "PIN-100", new: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 100) },
		ref: func(s, w uint32) cache.Policy { return newRefXMem(s, w, 100) }},
	{name: "RRIP+Hints", new: func(s, w uint32) cache.Policy { return NewPolicy(s, w, ModeHintsOnly) },
		ref: func(s, w uint32) cache.Policy { return newRefGRASP(s, w, ModeHintsOnly) }},
	{name: "GRASP (Insertion-Only)", new: func(s, w uint32) cache.Policy { return NewPolicy(s, w, ModeInsertionOnly) },
		ref: func(s, w uint32) cache.Policy { return newRefGRASP(s, w, ModeInsertionOnly) }},
	{name: "GRASP", new: func(s, w uint32) cache.Policy { return NewPolicy(s, w, ModeFull) },
		ref: func(s, w uint32) cache.Policy { return newRefGRASP(s, w, ModeFull) }},
	{name: "GRASP-LRU", new: func(s, w uint32) cache.Policy { return NewLRUPolicy(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefLRUPolicy(s, w) }},
	{name: "GRASP-PLRU", pow2Ways: true, new: func(s, w uint32) cache.Policy { return NewPLRUPolicy(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefPLRUPolicy(s, w) }},
	{name: "GRASP-DIP", new: func(s, w uint32) cache.Policy { return NewDIPPolicy(s, w) },
		ref: func(s, w uint32) cache.Policy { return newRefDIPPolicy(s, w) }},
}

// victimLog wraps a policy and remembers its last victim decision, so two
// runs are compared on every eviction choice and not only on hit/miss.
type victimLog struct {
	cache.Policy
	obs    cache.AccessObserver
	way    uint32
	bypass bool
	n      int
}

func newVictimLog(p cache.Policy) *victimLog {
	obs, _ := p.(cache.AccessObserver)
	return &victimLog{Policy: p, obs: obs}
}

func (l *victimLog) ObserveAccess(a mem.Access) {
	if l.obs != nil {
		l.obs.ObserveAccess(a)
	}
}

func (l *victimLog) Victim(set uint32, a mem.Access) (uint32, bool) {
	l.way, l.bypass = l.Policy.Victim(set, a)
	l.n++
	return l.way, l.bypass
}

// snapshot collects whatever inspection state a policy exposes.
func snapshot(p cache.Policy, sets uint32) any {
	switch p := p.(type) {
	case interface{ PredictorSnapshot() map[uint32]uint8 }:
		return p.PredictorSnapshot()
	case interface{ TableSnapshot() map[uint32]uint8 }:
		return p.TableSnapshot()
	case interface{ SHCTSnapshot() map[uint64]uint8 }:
		return p.SHCTSnapshot()
	case interface{ SHCTSnapshot() map[uint32]uint8 }:
		// SHiP-PC's signatures are PCs: widen them to compare with a
		// table that also holds 64-bit region signatures.
		out := make(map[uint64]uint8)
		for k, v := range p.SHCTSnapshot() {
			out[uint64(k)] = v
		}
		return out
	case interface{ PinnedCount() uint64 }:
		return p.PinnedCount()
	case interface{ StackOrder(uint32) []uint8 }:
		return stackOrders(p, sets)
	case *DIPPolicy:
		return stackOrders(p.stack, sets)
	case *refDIPPolicy:
		return stackOrders(p.stack, sets)
	}
	return nil
}

func stackOrders(p interface{ StackOrder(uint32) []uint8 }, sets uint32) [][]uint8 {
	out := make([][]uint8, sets)
	for s := range out {
		out[s] = p.StackOrder(uint32(s))
	}
	return out
}

// op is one step of a kernel stream: an access, or a flush (tags
// invalidated, policy state kept, as cache.Flush documents).
type op struct {
	a     mem.Access
	flush bool
}

// checkKernel replays ops through the rewritten and the reference policy
// in lockstep and fails at the first access whose hit/miss or victim
// decision differs, then compares final stats and snapshots.
func checkKernel(t testing.TB, kc kernelCase, sets, ways uint32, ops []op) {
	t.Helper()
	cfg := cache.Config{SizeBytes: uint64(sets) * uint64(ways) * cache.BlockSize, Ways: ways}
	np, rp := newVictimLog(kc.new(sets, ways)), newVictimLog(kc.ref(sets, ways))
	nc, rc := cache.MustNew(cfg, np), cache.MustNew(cfg, rp)
	for i, o := range ops {
		if o.flush {
			nc.Flush()
			rc.Flush()
			continue
		}
		nh, npanic := access(nc, o.a)
		rh, rpanic := access(rc, o.a)
		if npanic != rpanic {
			t.Fatalf("%s %dx%d: op %d (%+v): panic %q, reference panic %q", kc.name, sets, ways, i, o.a, npanic, rpanic)
		}
		if npanic != "" {
			return // both refused the stream (XMem filling a pinned way after a flush)
		}
		if nh != rh || np.n != rp.n || np.way != rp.way || np.bypass != rp.bypass {
			t.Fatalf("%s %dx%d: op %d (%+v): hit %v victim %d/%v (#%d), reference hit %v victim %d/%v (#%d)",
				kc.name, sets, ways, i, o.a, nh, np.way, np.bypass, np.n, rh, rp.way, rp.bypass, rp.n)
		}
	}
	if nc.Stats != rc.Stats {
		t.Fatalf("%s %dx%d: stats %+v, reference %+v", kc.name, sets, ways, nc.Stats, rc.Stats)
	}
	if ns, rs := snapshot(np.Policy, sets), snapshot(rp.Policy, sets); !reflect.DeepEqual(ns, rs) {
		t.Fatalf("%s %dx%d: snapshot %v, reference %v", kc.name, sets, ways, ns, rs)
	}
}

// access performs one access and returns the panic message it raised, if
// any, so a stream both versions refuse compares equal.
func access(c *cache.Cache, a mem.Access) (hit bool, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return c.Access(a), ""
}

// kernelStreams builds the streams every geometry is checked on: uniform
// random, a loop one block past capacity, a hot set under a cold stream
// (enough distinct blocks per sampled set to trigger OPTgen's history
// purge), one set hammered with everything, one sampled set cycling
// through more blocks than OPTgen's history holds (re-accesses that land
// just before and just after the purge horizon), and a random stream with
// flushes. PCs, hints, writes and property bits are all varied.
func kernelStreams(rng *rand.Rand, sets, ways uint32, n int) [][]op {
	capacity := uint64(sets) * uint64(ways)
	pcs := []uint32{mem.PC("a"), mem.PC("b"), mem.PC("c"), mem.PC("d"), 0, ^uint32(0), 7, 1 << 31}
	access := func(block uint64) op {
		r := rng.Uint32()
		return op{a: mem.Access{
			Addr:     block<<cache.BlockBits | uint64(r%cache.BlockSize),
			PC:       pcs[r>>8%uint32(len(pcs))],
			Hint:     mem.Hint(r >> 12 % 4),
			Write:    r>>16&1 == 1,
			Property: r>>17&1 == 1,
		}}
	}
	var out [][]op
	var s []op
	for i := 0; i < n; i++ {
		s = append(s, access(uint64(rng.Int63n(int64(2*capacity+1)))))
	}
	out = append(out, s)
	s = nil
	for i := 0; i < n; i++ {
		s = append(s, access(uint64(i)%(capacity+1)))
	}
	out = append(out, s)
	s = nil
	cold := uint64(1 << 20)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s = append(s, access(uint64(rng.Int63n(int64(capacity/2+1)))))
		} else {
			s = append(s, access(cold))
			cold++
		}
	}
	out = append(out, s)
	s = nil
	for i := 0; i < n; i++ {
		s = append(s, access(uint64(rng.Int63n(int64(4*ways)))*uint64(sets)))
	}
	out = append(out, s)
	s = nil
	for i := 0; i < n; i++ {
		s = append(s, access(uint64(rng.Intn(2048))*uint64(sets))) // set 0: four times the 512-block history
	}
	out = append(out, s)
	s = nil
	for i := 0; i < n; i++ {
		if rng.Intn(n/4+1) == 0 {
			s = append(s, op{flush: true})
		}
		s = append(s, access(uint64(rng.Int63n(int64(3*capacity+1)))))
	}
	return append(out, s)
}

// TestPolicyKernelsMatchReference: every rewritten policy makes the same
// hit/miss and victim decision as its pre-rewrite reference on every
// access, and ends with the same stats and inspection state, over sets
// {1, 2, 4, 16, 64} x ways {4, 8, 12, 16} (12 takes the scalar fallbacks
// of the eight-ways-per-word kernels). The shared set-dueling role is
// checked against the reference's per-policy copy too.
func TestPolicyKernelsMatchReference(t *testing.T) {
	t.Run("DuelLeaders", checkDuelLeaders)
	n := 6000
	if testing.Short() {
		n = 1500
	}
	for _, sets := range []uint32{1, 2, 4, 16, 64} {
		for _, ways := range []uint32{4, 8, 12, 16} {
			streams := kernelStreams(rand.New(rand.NewSource(int64(sets*100+ways))), sets, ways, n)
			for _, kc := range kernelCases {
				if kc.pow2Ways && ways&(ways-1) != 0 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%dx%d", kc.name, sets, ways), func(t *testing.T) {
					for _, s := range streams {
						checkKernel(t, kc, sets, ways, s)
					}
				})
			}
		}
	}
}

// checkDuelLeaders: the shared set-dueling role equals the reference's
// DRRIP copy for every set of every set count up to 256.
func checkDuelLeaders(t *testing.T) {
	for sets := uint32(1); sets <= 256; sets++ {
		ref := newRefDRRIP(sets, 4)
		for set := uint32(0); set < sets; set++ {
			if got, want := policy.DuelLeader(set, sets), ref.leader(set); got != want {
				t.Fatalf("sets=%d set %d: leader %d, reference %d", sets, set, got, want)
			}
		}
	}
}

// FuzzPolicyKernels drives arbitrary streams through the same lockstep
// comparison: the first byte picks the geometry, every following pair of
// bytes is one access (block, then PC/hint/write/property bits), and a
// pair 0xff 0xff flushes the cache.
func FuzzPolicyKernels(f *testing.F) {
	f.Add([]byte{0x00, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 0})
	f.Add([]byte{0x13, 0, 0x31, 4, 0x12, 8, 0x23, 12, 0x30, 16, 0x01, 0, 0x31, 20, 0x02, 24, 0x13})
	f.Add([]byte{0x0f, 3, 0x1f, 0xff, 0xff, 3, 0x1f, 9, 0x2e, 200, 0x3d, 9, 0x2e})
	f.Add([]byte{0x12, 0, 0x30, 2, 0x30, 4, 0x30, 6, 0x30, 8, 0x30, 10, 0x30, 12, 0x30, 14, 0x30, 16, 0x30})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 || len(raw) > 4097 {
			return
		}
		setsOpts, waysOpts := []uint32{1, 2, 4, 16, 64}, []uint32{4, 8, 12, 16}
		sets, ways := setsOpts[int(raw[0]>>4)%len(setsOpts)], waysOpts[int(raw[0]&0xf)%len(waysOpts)]
		pcs := []uint32{mem.PC("a"), mem.PC("b"), 0, ^uint32(0)}
		var ops []op
		for i := 1; i+1 < len(raw); i += 2 {
			b, m := raw[i], raw[i+1]
			if b == 0xff && m == 0xff {
				ops = append(ops, op{flush: true})
				continue
			}
			ops = append(ops, op{a: mem.Access{
				Addr:     uint64(b)<<cache.BlockBits | uint64(m>>7)<<(cache.BlockBits+8),
				PC:       pcs[m&3],
				Hint:     mem.Hint(m >> 2 & 3),
				Write:    m&0x10 != 0,
				Property: m&0x20 != 0,
			}})
		}
		for _, kc := range kernelCases {
			if kc.pow2Ways && ways&(ways-1) != 0 {
				continue
			}
			checkKernel(t, kc, sets, ways, ops)
		}
	})
}
