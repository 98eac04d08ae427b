// Package fail provides named, test-armable failpoints: fixed hooks
// compiled into I/O and execution paths (store writes, journal appends,
// trace replay chunks, job execution) that tests arm to inject an error or a
// panic exactly where a real fault would strike. The chaos suite drives
// disk-full, torn-shutdown and panicking-simulation scenarios through
// them (DESIGN.md Sec. 13).
//
// Disarmed is the only state production code ever sees, so Hit's fast
// path is a single atomic load of a process-wide counter — no map lookup,
// no lock — and the hooks are safe to leave on hot-ish paths like the
// per-chunk replay check.
package fail

import (
	"errors"
	"sync"
	"sync/atomic"
)

// armed counts currently armed points; Hit returns immediately while it
// is zero, so disarmed failpoints cost one atomic load.
var armed atomic.Int32

// point is one armed failpoint.
type point struct {
	err      error  // returned by Hit (error mode)
	panicMsg string // non-empty: Hit panics instead (panic mode)
	skip     int    // successful passes remaining before the point fires
	hits     int    // times the point actually fired
}

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

// ErrInjected is the default error Arm installs when given a nil error —
// tests matching on it can assert a failure came from the harness.
var ErrInjected = errors.New("fail: injected fault")

// Hit reports the armed fault for name: nil while the point is disarmed
// (the only state outside tests), the armed error once armed, or a panic
// when the point was armed with ArmPanic. Each firing is counted (Hits).
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p := points[name]
	if p == nil {
		mu.Unlock()
		return nil
	}
	if p.skip > 0 {
		p.skip--
		mu.Unlock()
		return nil
	}
	p.hits++
	err, msg := p.err, p.panicMsg
	mu.Unlock()
	if msg != "" {
		panic("fail: injected panic at " + name + ": " + msg)
	}
	return err
}

// Arm makes Hit(name) return err (ErrInjected when err is nil) until the
// point is disarmed.
func Arm(name string, err error) { ArmAfter(name, 0, err) }

// ArmAfter is Arm, except the first `passes` Hits succeed before the
// point starts firing — for faults that strike mid-stream (the Nth replay
// chunk, the Nth journal append).
func ArmAfter(name string, passes int, err error) {
	if err == nil {
		err = ErrInjected
	}
	mu.Lock()
	points[name] = &point{err: err, skip: passes}
	mu.Unlock()
	armed.Store(int32(len(points)))
}

// ArmPanic makes Hit(name) panic with the given message — the
// fault-containment scenarios (a policy or parser panicking mid-job)
// inject through this.
func ArmPanic(name, msg string) {
	if msg == "" {
		msg = "injected"
	}
	mu.Lock()
	points[name] = &point{panicMsg: msg}
	mu.Unlock()
	armed.Store(int32(len(points)))
}

// Disarm removes one failpoint.
func Disarm(name string) {
	mu.Lock()
	delete(points, name)
	armed.Store(int32(len(points)))
	mu.Unlock()
}

// Reset disarms every failpoint (deferred by every chaos test).
func Reset() {
	mu.Lock()
	points = map[string]*point{}
	armed.Store(0)
	mu.Unlock()
}

// Hits returns how many times the named point has fired since it was
// armed (0 if never armed).
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return p.hits
	}
	return 0
}
