package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"grasp/internal/jobs"
	"grasp/internal/server"
)

// serveTrace is the per-layer side of a serve run: a wrapper around every
// node's http.Handler that records one span per request, probes issued
// after an operation (queue wait, replication lag), and — after the timed
// phase — direct in-process calls into jobs on a scratch store. Spans of
// one request are linked client → n0 handler → owner handler, so a
// layer's self time is its span minus its children.
type serveTrace struct {
	spans *spanLog

	mu        sync.Mutex
	fwdBody   map[int][]byte // handler span id -> body of a forwarded POST /jobs
	queueWait []float64      // ms, one per join
	replLag   []float64      // ms, one per cold operation (cluster)
}

func newServeTrace(spans *spanLog) *serveTrace {
	return &serveTrace{spans: spans, fwdBody: make(map[int][]byte)}
}

// wrap interposes on one node's handler.
func (t *serveTrace) wrap(id string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opIdx, _ := strconv.Atoi(r.Header.Get(opHeader))
		attr := r.Method + " " + r.URL.Path
		// A forwarded submission carries no op header (the forwarding node
		// builds a fresh request), so keep its body: the spec's hash is
		// what ties it to the operation that caused it.
		var body []byte
		forwarded := r.Method == http.MethodPost && r.URL.Path == "/jobs" && r.Header.Get(forwardedHeader) != "" && opIdx == 0
		if forwarded {
			attr += " forwarded"
			body, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		sp := t.spans.add(span{Name: "server.handler", Node: id, Op: opIdx, Attr: attr}, start, time.Now())
		if forwarded {
			t.mu.Lock()
			t.fwdBody[sp.ID] = body
			t.mu.Unlock()
		}
	})
}

// afterSetup takes, on a cluster, node n0's routing verdict for every hash
// the schedule will touch.
func (t *serveTrace) afterSetup(nodes []*node, sc *schedule) error {
	if len(nodes) == 1 {
		return nil
	}
	for _, si := range append(append([]*specInfo(nil), sc.stored...), sc.cold...) {
		var v struct {
			Replicas []string `json:"replicas"`
		}
		if err := getJSON(nodes[0].url+"/cluster?hash="+si.hash, &v); err != nil {
			return err
		}
		if len(v.Replicas) == 0 {
			return fmt.Errorf("/cluster gave no replicas for %s", si.hash[:12])
		}
		si.replicas = v.Replicas
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func nodeByID(nodes []*node, id string) *node {
	for _, nd := range nodes {
		if nd.id == id {
			return nd
		}
	}
	return nodes[0]
}

// afterOp runs on the client's goroutine right after an operation: a join
// reads its job's timestamps back, a cold operation on a cluster polls
// the hash's successor until the replica has landed.
func (t *serveTrace) afterOp(c *client, nodes []*node, idx int, o op) {
	if o.class < classColdFull {
		return
	}
	last := c.recs[len(c.recs)-1]
	replied := last.start.Add(last.rtt)
	owner := nodes[0]
	if len(o.spec.replicas) > 0 {
		owner = nodeByID(nodes, o.spec.replicas[0])
	}
	if id := c.jobID[idx]; id != "" {
		var st jobs.Status
		if getJSON(owner.url+"/jobs/"+id, &st) == nil && !st.Started.IsZero() {
			t.mu.Lock()
			t.queueWait = append(t.queueWait, float64(st.Started.Sub(st.Submitted))/1e6)
			t.mu.Unlock()
		}
	}
	if len(o.spec.replicas) > 1 {
		succ := nodeByID(nodes, o.spec.replicas[1])
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			resp, err := http.Get(succ.url + "/internal/results/" + o.spec.hash)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				t.mu.Lock()
				t.replLag = append(t.replLag, float64(time.Since(replied))/1e6)
				t.mu.Unlock()
				return
			}
		}
	}
}

// contains reports whether inner lies within outer.
func contains(outer, inner span) bool { return inner.Start >= outer.Start && inner.End <= outer.End }

// report links the spans up and turns them, the probes and the in-process
// jobs calls into per-layer metrics.
func (t *serveTrace) report(o *outcome, e *env, nodes []*node, sc *schedule, recs []reqRec, clients []*client) error {
	m := o.m
	// Client spans, and by operation for matching.
	type clientSpan struct {
		span
		rec reqRec
	}
	byOp := make(map[int][]clientSpan)
	for _, r := range recs {
		if r.op < 0 {
			continue
		}
		s := t.spans.add(span{Name: "client." + classNames[r.class], Op: r.op + 1, Attr: r.spec.hash[:12]},
			r.start, r.start.Add(r.rtt))
		byOp[r.op+1] = append(byOp[r.op+1], clientSpan{s, r})
	}
	all := t.spans.snapshot()
	// n0's handler span of each client request.
	type served struct {
		client  clientSpan
		handler span
		child   *span // the owner's handler span when n0 forwarded
	}
	var reqs []*served
	byHash := make(map[string][]*served)
	for _, h := range all {
		if h.Name != "server.handler" || h.Op == 0 {
			continue
		}
		for _, cs := range byOp[h.Op] {
			if contains(cs.span, h) {
				t.spans.setParent(h.ID, cs.ID)
				sv := &served{client: cs, handler: h}
				reqs = append(reqs, sv)
				byHash[cs.rec.spec.hash] = append(byHash[cs.rec.spec.hash], sv)
				break
			}
		}
	}
	// Forwarded submissions and federated fetches: children of the n0
	// handler span for the same hash that contains them.
	for _, h := range all {
		if h.Name != "server.handler" || h.Op != 0 {
			continue
		}
		var hash string
		body, isSubmit := t.fwdBody[h.ID]
		if isSubmit {
			var req server.SubmitRequest
			if json.Unmarshal(body, &req) != nil || req.Spec.Canonicalize() != nil {
				continue
			}
			hash, _ = req.Spec.Hash()
		} else if p, ok := strings.CutPrefix(h.Attr, "GET /internal/results/"); ok {
			hash = p
		}
		for _, sv := range byHash[hash] {
			if contains(sv.handler, h) && sv.client.rec.get != isSubmit && (sv.child == nil || !isSubmit) {
				t.spans.setParent(h.ID, sv.handler.ID)
				if sv.child == nil {
					child := h
					sv.child = &child
				}
				break
			}
		}
	}

	single := len(nodes) == 1
	var handlerHit, handlerRead, transport, localSelf, accept []float64
	var localHit, fwdHit, hop, readLocal, readFed []float64
	posts, forwardedPosts := 0, 0
	for _, sv := range reqs {
		r := sv.client.rec
		rttMS := float64(r.rtt) / 1e6
		handlerUS := float64(sv.handler.End-sv.handler.Start) / 1e3
		if !r.get {
			posts++
			if sv.child != nil {
				forwardedPosts++
				hop = append(hop, handlerUS-float64(sv.child.End-sv.child.Start)/1e3)
			}
		}
		switch {
		case r.class == classHit:
			handlerHit = append(handlerHit, handlerUS)
			transport = append(transport, rttMS*1e3-handlerUS)
			if sv.child == nil {
				localSelf = append(localSelf, handlerUS)
				if !single {
					localHit = append(localHit, rttMS)
				}
			} else {
				fwdHit = append(fwdHit, rttMS)
			}
		case r.class == classRead:
			handlerRead = append(handlerRead, handlerUS)
			if !single {
				if sv.child == nil {
					readLocal = append(readLocal, rttMS)
				} else {
					readFed = append(readFed, rttMS)
				}
			}
		case r.class == classJoin && r.leg == 0:
			accept = append(accept, rttMS)
		}
	}
	m.setDist("server.handler_us_p50.hit", handlerHit, 50)
	m.setDist("server.handler_us_p50.read", handlerRead, 50)
	m.setDist("server.transport_us_p50", transport, 50)
	m.setDist("server.accept_ms_p50", accept, 50)
	m.setDist("jobs.queue_wait_ms_p50", t.queueWait, 50)
	m.setDist("jobs.queue_wait_ms_p90", t.queueWait, 90)
	if !single {
		m.setDist("cluster.local_hit_ms_p50", localHit, 50)
		m.setDist("cluster.fwd_hit_ms_p50", fwdHit, 50)
		m.setDist("cluster.fwd_hop_us_p50", hop, 50)
		m.set("cluster.fwd_share", float64(forwardedPosts)/float64(max(posts, 1)), posts)
		m.setDist("cluster.read_local_ms_p50", readLocal, 50)
		m.setDist("cluster.read_federated_ms_p50", readFed, 50)
		m.setDist("cluster.replicate_lag_ms_p50", t.replLag, 50)
		held, want := 0, 0
		for _, si := range sc.cold {
			for _, id := range si.replicas {
				want++
				resp, err := http.Get(nodeByID(nodes, id).url + "/internal/results/" + si.hash)
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					held++
				}
			}
		}
		m.set("cluster.replicated_share", float64(held)/float64(max(want, 1)), want)
	}

	submitHitUS, err := jobsDirect(m, filepath.Join(e.scratch, "direct"), sc, clients)
	if err != nil {
		return err
	}
	// What a locally served hit spends in the HTTP layer itself (request
	// decode, routing, response encode) or waiting for a processor: its
	// round trip minus transport minus Manager.Submit.
	if hit := m["hit_ms_p50"].value * 1e3; hit > 0 && len(localSelf) > 0 {
		self := median(localSelf) - submitHitUS
		m.set("server.unexplained_share", self/hit, len(localSelf))
	}
	return nil
}

// jobsDirect times the jobs layer's own entry points in process, on a
// scratch store holding the run's stored outcomes, and returns
// jobs.submit_hit_us.
func jobsDirect(m metrics, dir string, sc *schedule, clients []*client) (float64, error) {
	var outs []*jobs.Outcome
	for _, si := range sc.stored {
		for _, c := range clients {
			if body, ok := c.first[si.hash+http.MethodPost]; ok {
				var out jobs.Outcome
				if json.Unmarshal(body, &out) == nil {
					outs = append(outs, &out)
				}
				break
			}
		}
	}
	if len(outs) == 0 {
		return 0, fmt.Errorf("no stored outcome to time the jobs layer with")
	}
	const loops = 8
	perCallUS := func(calls int, fn func()) float64 {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0)) / 1e3 / float64(calls)
	}

	m.set("jobs.canon_hash_us", perCallUS(loops*len(outs), func() {
		for l := 0; l < loops; l++ {
			for _, out := range outs {
				s := out.Spec
				if s.Canonicalize() == nil {
					s.Hash()
				}
			}
		}
	}), loops*len(outs))

	store, err := jobs.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return 0, err
	}
	var putMS []float64
	for _, out := range outs {
		t0 := time.Now()
		if err := store.Put(out); err != nil {
			return 0, err
		}
		putMS = append(putMS, float64(time.Since(t0))/1e6)
	}
	m.setDist("jobs.store_put_ms", putMS, 50)
	m.set("jobs.store_get_us", perCallUS(loops*len(outs), func() {
		for l := 0; l < loops; l++ {
			for _, out := range outs {
				store.Get(out.Hash)
			}
		}
	}), loops*len(outs))

	jn, _, err := jobs.OpenJournal(filepath.Join(dir, "store"))
	if err != nil {
		return 0, err
	}
	var appendMS []float64
	for _, out := range outs[:min(64, len(outs))] {
		t0 := time.Now()
		if err := jn.Submitted(out.Hash, out.Spec, 0); err != nil {
			return 0, err
		}
		if err := jn.Settled(out.Hash); err != nil {
			return 0, err
		}
		appendMS = append(appendMS, float64(time.Since(t0))/1e6/2)
	}
	if err := jn.Close(); err != nil {
		return 0, err
	}
	m.setDist("jobs.journal_append_ms", appendMS, 50)

	mgr := jobs.NewManager(store, 1)
	var serr error
	submitHit := perCallUS(loops*len(outs), func() {
		for l := 0; l < loops; l++ {
			for _, out := range outs {
				if _, disp, err := mgr.Submit(out.Spec, 0); err != nil || disp != jobs.Cached {
					serr = fmt.Errorf("Submit of a stored spec: %v %v", disp, err)
				}
			}
		}
	})
	if err := mgr.Shutdown(context.Background()); err != nil {
		return 0, err
	}
	if serr != nil {
		return 0, serr
	}
	m.set("jobs.submit_hit_us", submitHit, loops*len(outs))
	return submitHit, nil
}
