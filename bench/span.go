package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's side of the call. Spans stay in memory during the run and
// are written out at exit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root
	Name   string `json:"name"`             // layer.operation
	Node   string `json:"node,omitempty"`   // serving node, serve workloads
	Op     int    `json:"op,omitempty"`     // 1-based schedule index, serve workloads
	Attr   string `json:"attr,omitempty"`   // dataset/app/policy or method+path
	Start  int64  `json:"start_ns"`         // since the log was created
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// spanLog is the in-memory span store of one traced run.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// add stores a span timed by the caller and returns it with its id and
// log-relative times filled in.
func (l *spanLog) add(s span, start, end time.Time) span {
	s.Start, s.End = int64(start.Sub(l.t0)), int64(end.Sub(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s
}

// open stores a span whose end is not known yet, so calls made inside it
// can name it as their parent; close fills the end in.
func (l *spanLog) open(name string, parent int, attr string) int {
	now := time.Now()
	return l.add(span{Name: name, Parent: parent, Attr: attr}, now, now).ID
}

func (l *spanLog) close(id int) {
	end := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

// timed runs fn inside a span and returns its duration in seconds.
func (l *spanLog) timed(name string, parent int, attr string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.add(span{Name: name, Parent: parent, Attr: attr}, start, end)
	return end.Sub(start).Seconds(), err
}

// setParent links a span recorded on its own (a handler span) under the
// span that caused it, once the run has been matched up.
func (l *spanLog) setParent(id, parent int) {
	l.mu.Lock()
	l.spans[id-1].Parent = parent
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfSeconds returns every span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children — a
// hedged pair of fetches — are not subtracted twice).
func selfSeconds(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// selfByName sums self time over the spans of each name.
func selfByName(spans []span) map[string]float64 {
	self := selfSeconds(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeFile dumps the log as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
