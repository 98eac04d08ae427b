package server

// Cluster mode (DESIGN.md Sec. 16): the HTTP glue over internal/cluster's
// routing state. The division of labor is deliberate — internal/cluster
// knows WHO owns a hash and which peers are alive; this file knows HOW to
// act on that: forward a submission to the owner (failing over down the
// candidate list), hand a cold single job's simulation to the node its
// workload lives on, replicate a freshly stored result to its successor,
// and federate a result read from replica holders with hedged,
// checksum-verified fetches. Everything here is a no-op when the daemon
// runs without -peers: enableCluster is never called, s.cl stays nil, and
// every handler takes its pre-cluster path.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/fail"
	"grasp/internal/jobs"
)

const (
	// forwardedHeader is the hop guard: a node sets it (to its own node
	// ID) on every request it sends a peer, and a receiving node NEVER
	// forwards a submission carrying it — a submission crosses at most one
	// hop, so divergent health views or ring disagreement cannot create a
	// loop.
	forwardedHeader = "X-Graspd-Forwarded"
	// resultSumHeader carries the SHA-256 of the exact response body on raw
	// result responses; receivers (peers and the cluster smoke test alike)
	// recompute and compare before trusting the bytes.
	resultSumHeader = "X-Graspd-Result-Sha256"

	// defaultHedgeDelay is the latency budget a federated read gives the
	// first replica holder before also asking the next.
	defaultHedgeDelay = 150 * time.Millisecond
	// maxResultBytes bounds one fetched result body (rendered experiment
	// outputs run to a few hundred KB; 64 MiB is far past any real
	// outcome while keeping a misbehaving peer from exhausting memory).
	maxResultBytes = 64 << 20
	// forwardTimeout bounds a forwarded non-wait submission and a
	// replication notify round trip.
	forwardTimeout = 30 * time.Second
)

// enableCluster arms the cluster endpoints and hooks. Called from NewWith
// when Options.Cluster is set.
func (s *Server) enableCluster(cl *cluster.Cluster, hedge time.Duration) {
	s.cl = cl
	s.hedge = hedge
	if s.hedge <= 0 {
		s.hedge = defaultHedgeDelay
	}
	s.fwdShort = &http.Client{Timeout: forwardTimeout}
	s.fwdLong = &http.Client{} // wait=true forwards block for the job's duration
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	s.mux.HandleFunc("GET /internal/results/{hash}", s.handleRawResult)
	s.mux.HandleFunc("POST /internal/replicate", s.handleReplicate)
	s.mux.HandleFunc("POST /internal/execute", s.handleExecute)
	s.mgr.SetPlacer(s.place)
	// Every outcome this node persists is offered to the other holders of
	// its hash. The hook fires on the worker goroutine, so go async
	// immediately; replWG lets tests drain the fan-out.
	s.mgr.SetOnStored(func(hash string) {
		s.replWG.Add(1)
		go func() {
			defer s.replWG.Done()
			s.replicate(hash)
		}()
	})
	cl.Start()
}

// Cluster returns the membership view (nil in single-node mode). cmd/graspd
// uses it to stop the prober on shutdown.
func (s *Server) Cluster() *cluster.Cluster { return s.cl }

// DrainReplication blocks until every in-flight replication fan-out has
// finished. Tests call it before asserting on replica stores.
func (s *Server) DrainReplication() { s.replWG.Wait() }

// routeSubmit decides where a freshly decoded submission executes. It
// returns true when the response has been fully written (the job was
// forwarded to a peer); false means "execute locally" — either this node
// is the best live candidate for the hash, or every remote candidate
// failed and local execution is the final fallback, which content
// addressing makes safe: a double-executed job produces the identical
// outcome under the identical address.
func (s *Server) routeSubmit(w http.ResponseWriter, r *http.Request, req *SubmitRequest) bool {
	spec := req.Spec
	if err := spec.Canonicalize(); err != nil {
		return false // let the local Submit surface the validation error
	}
	hash, err := spec.Hash()
	if err != nil {
		return false
	}
	cands := s.cl.Candidates(hash)
	for i, p := range cands {
		if p.ID == s.cl.Self().ID {
			return false // we are the best live candidate — run it here
		}
		if s.forwardSubmit(w, r, req, p) {
			return true
		}
		if i+1 < len(cands) {
			log.Printf("server: submission %s: %s unreachable, failing over to %s",
				hash[:12], p.ID, cands[i+1].ID)
		} else {
			log.Printf("server: submission %s: every candidate unreachable, executing locally", hash[:12])
		}
		s.failovers.Add(1)
	}
	return false
}

// forwardSubmit relays one submission to a peer and, on success, copies
// the peer's response through verbatim. It returns false when callPeer
// gives no answer — a transport error, an injected fault or a 5xx, the
// signals that the peer cannot take the job right now — so the caller
// tries the next candidate; 4xx responses relay as-is (the spec is bad
// everywhere).
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, req *SubmitRequest, p cluster.Peer) bool {
	client := s.fwdShort
	if req.Wait {
		client = s.fwdLong // the forward blocks exactly as long as the job
	}
	resp, err := s.callPeer(r.Context(), client, "forward", p, http.MethodPost, "/jobs", req)
	if err != nil {
		if r.Context().Err() != nil {
			// Our client hung up; nothing to fail over for.
			httpError(w, 499, r.Context().Err())
			return true
		}
		return false
	}
	defer resp.Body.Close()
	s.forwarded.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// callPeer sends one node-to-node request; every exchange with a peer
// goes through it. It fires the cluster.<op> and cluster.<op>.<peer>
// failpoints, sets the hop guard and, for a non-nil body, its JSON, and
// reports the exchange to Cluster.Report unless ctx ended first — a
// caller that gave up says nothing about the peer. A transport error, an
// injected fault or an answer >= 500 returns as err, its body drained;
// any other answer is the caller's to read and close.
func (s *Server) callPeer(ctx context.Context, client *http.Client, op string, p cluster.Peer, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.Addr+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(forwardedHeader, s.cl.Self().ID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var resp *http.Response
	if err = fail.Hit("cluster." + op); err == nil {
		if err = fail.Hit("cluster." + op + "." + p.ID); err == nil {
			resp, err = client.Do(req)
		}
	}
	if ctx.Err() == nil {
		s.cl.Report(p.ID, resp, err)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("peer answered %s", resp.Status)
	}
	return resp, nil
}

// readResult reads a peer's outcome body, at most maxResultBytes of it,
// and verifies it against the checksum header — which a body cut off at
// the cap fails too — before returning it with its digest.
func readResult(resp *http.Response) ([]byte, string, error) {
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
	if err != nil {
		return nil, "", err
	}
	sum := sha256Hex(data)
	if want := resp.Header.Get(resultSumHeader); want != sum {
		return nil, "", fmt.Errorf("body hashes to %s, peer's %s header says %s", sum, resultSumHeader, want)
	}
	return data, sum, nil
}

// executeRequest is the body of POST /internal/execute: the canonicalized
// spec of a cold single job and the content address its owner queued it
// under.
type executeRequest struct {
	// Spec is the job's canonicalized spec.
	Spec jobs.Spec `json:"spec"`
	// Hash is the address the owner will store the outcome under; the
	// serving node simulates only if the spec hashes to it there too.
	Hash string `json:"hash"`
}

// place is the manager's placement hook (jobs.Manager.SetPlacer): the job
// stays on the owner of its hash — queued, journaled, stored and replicated
// there — and only its simulation goes to the first live owner of its
// workload key, so one node loads, reorders and records a workload for the
// whole cluster. placed=false sends the worker on to simulate locally:
// because this node is that owner, or because the peer could not be asked
// (transport error, 5xx, 409, body failing its checksum) — content
// addressing makes the local run produce the identical outcome. A 4xx is
// the simulation's own error and fails the job once, as a local one would.
func (s *Server) place(ctx context.Context, key string, spec jobs.Spec, hash string) (*jobs.Outcome, bool, error) {
	cands := s.cl.Candidates(key)
	if len(cands) == 0 || cands[0].ID == s.cl.Self().ID {
		return nil, false, nil
	}
	p := cands[0]
	o, simErr, err := s.executeOn(ctx, p, spec, hash)
	switch {
	case err == nil:
		s.placed.Add(1)
		return o, true, simErr
	case ctx.Err() != nil:
		// The job was cancelled, timed out or drained mid-call: that is its
		// outcome, not the peer's fault and not a reason to start over.
		return nil, true, context.Cause(ctx)
	}
	s.placeFallbacks.Add(1)
	log.Printf("server: job %s: placing on %s failed, simulating locally: %v", hash[:12], p.ID, err)
	return nil, false, nil
}

// executeOn asks one peer to simulate a spec. err means the peer gave no
// usable answer (the caller falls back); otherwise exactly one of the
// outcome and simErr — the peer's own simulation error — is set.
func (s *Server) executeOn(ctx context.Context, p cluster.Peer, spec jobs.Spec, hash string) (o *jobs.Outcome, simErr, err error) {
	// fwdLong: the call blocks exactly as long as the simulation; ctx bounds it.
	resp, err := s.callPeer(ctx, s.fwdLong, "place", p, http.MethodPost, "/internal/execute",
		executeRequest{Spec: spec, Hash: hash})
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
		if err != nil {
			return nil, nil, err
		}
		msg := errorMessage(data)
		if msg == "" {
			msg = "no error body"
		}
		if resp.StatusCode == http.StatusConflict {
			return nil, nil, fmt.Errorf("peer answered %s: %s", resp.Status, msg)
		}
		return nil, errors.New(msg), nil
	}
	data, _, err := readResult(resp)
	if err != nil {
		return nil, nil, err
	}
	o = new(jobs.Outcome)
	if err := json.Unmarshal(data, o); err != nil {
		return nil, nil, err
	}
	return o, nil, nil
}

// handleExecute implements POST /internal/execute: simulate one spec for
// the peer that owns its hash and answer the bare outcome with its
// checksum. It never forwards, places, stores or journals — peers call it,
// so it running only on the local session is what makes placement one hop
// by construction, the same shape as the raw-result endpoint. 409 says this
// node cannot reproduce the address (jobs.ErrNotReproducible) and nothing
// was simulated; 503 that it is draining or has a full backlog; both send
// the caller back to simulate locally. Any other failure is the
// simulation's own.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if err := fail.Hit("cluster.execute." + s.cl.Self().ID); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var req executeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	// No DisallowUnknownFields: a spec field this build does not know moves
	// the hash it computes, and ExecutePlaced refuses it.
	o, err := s.mgr.ExecutePlaced(r.Context(), req.Spec, req.Hash)
	switch {
	case errors.Is(err, jobs.ErrNotReproducible):
		httpError(w, http.StatusConflict, err)
		return
	case errors.Is(err, jobs.ErrDraining) || errors.Is(err, jobs.ErrOverloaded):
		s.retryableError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.placedServed.Add(1)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	data, err := json.Marshal(o)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeRawResult(w, data, sha256Hex(data))
}

// handleCluster implements GET /cluster: the membership snapshot, plus —
// with ?hash= — the routing verdict for one job hash (the smoke test uses
// it to find and kill the owner).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"self":               s.cl.Self().ID,
		"replication_factor": s.cl.ReplicationFactor(),
		"members":            s.cl.Snapshot(),
	}
	if hash := r.URL.Query().Get("hash"); hash != "" {
		owners := s.cl.Owners(hash)
		ids := make([]string, len(owners))
		for i, p := range owners {
			ids[i] = p.ID
		}
		var live []string
		for _, p := range s.cl.Candidates(hash) {
			live = append(live, p.ID)
		}
		resp["hash"] = hash
		resp["owner"] = ids[0]
		resp["replicas"] = ids
		resp["candidates"] = live
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRawResult implements GET /internal/results/{hash}: the exact
// persisted bytes of a locally stored outcome with their checksum header.
// It never federates — peers fetch from it, so it answering only from the
// local store is what makes result fetches loop-free by construction.
func (s *Server) handleRawResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	data, sum, ok := s.mgr.Store().GetRaw(hash)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no stored result for %q", hash))
		return
	}
	writeRawResult(w, data, sum)
}

// writeRawResult serves persisted outcome bytes verbatim with their
// digest, so any receiver can verify end to end.
func writeRawResult(w http.ResponseWriter, data []byte, sum string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(resultSumHeader, sum)
	w.Write(data)
}

// replicateRequest is the body of POST /internal/replicate: a push
// NOTIFICATION, not a push of the bytes — the receiver pulls the result
// from Source and verifies it against Sum. Peers are trusted: Source must
// be the address of a configured peer other than the receiver, or the
// notification is refused before any fetch.
type replicateRequest struct {
	// Hash is the outcome's content address.
	Hash string `json:"hash"`
	// Source is the base URL holding the bytes (the notifying node).
	Source string `json:"source"`
	// Sum is the SHA-256 the pulled bytes must hash to.
	Sum string `json:"sum"`
}

// replicate offers a freshly stored outcome to the other ideal holders of
// its hash. Owners (not Candidates) on purpose: replication targets the
// ring's placement even when a holder is temporarily down — the notify
// just fails and the holder cache-fills later on first read.
func (s *Server) replicate(hash string) {
	_, sum, ok := s.mgr.Store().GetRaw(hash)
	if !ok {
		return // degraded store: nothing on disk to offer
	}
	for _, p := range s.cl.Owners(hash) {
		if p.ID == s.cl.Self().ID {
			continue
		}
		if err := s.notifyReplica(p, hash, sum); err != nil {
			s.replErrors.Add(1)
			log.Printf("server: replicating %s to %s: %v", hash[:12], p.ID, err)
		} else {
			s.replicated.Add(1)
		}
	}
}

// notifyReplica tells one peer to pull an outcome from us.
func (s *Server) notifyReplica(p cluster.Peer, hash, sum string) error {
	resp, err := s.callPeer(context.Background(), s.fwdShort, "replicate", p, http.MethodPost, "/internal/replicate",
		replicateRequest{Hash: hash, Source: s.cl.Self().Addr, Sum: sum})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer answered %s", resp.Status)
	}
	return nil
}

// handleReplicate implements POST /internal/replicate: refuse a source
// that is not a peer, pull the announced outcome from it, verify the
// digest, persist the bytes verbatim.
// Idempotent — an already-present verified copy answers 200 without a
// fetch, so re-notifies after partial failures are free.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req replicateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if req.Hash == "" || req.Source == "" || req.Sum == "" {
		httpError(w, http.StatusBadRequest, errors.New("hash, source and sum are all required"))
		return
	}
	source, ok := s.peerAt(req.Source)
	if !ok {
		httpError(w, http.StatusForbidden, fmt.Errorf("source %q is not a peer of this node", req.Source))
		return
	}
	if _, sum, ok := s.mgr.Store().GetRaw(req.Hash); ok && sum == req.Sum {
		writeJSON(w, http.StatusOK, map[string]string{"status": "already-present"})
		return
	}
	data, _, err := s.fetchRaw(r.Context(), source, req.Hash)
	if err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("pulling %s from %s: %w", req.Hash, req.Source, err))
		return
	}
	if got := sha256Hex(data); got != req.Sum {
		httpError(w, http.StatusBadGateway,
			fmt.Errorf("pulled bytes hash to %s, notification promised %s", got, req.Sum))
		return
	}
	if err := s.mgr.Store().PutRaw(req.Hash, data); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "replicated"})
}

// peerAt returns the configured peer other than this node whose base URL
// is addr: the only sources a replicate notification may name.
func (s *Server) peerAt(addr string) (cluster.Peer, bool) {
	addr = strings.TrimRight(addr, "/")
	for _, p := range s.cl.Peers() {
		if p.ID != s.cl.Self().ID && p.Addr == addr {
			return p, true
		}
	}
	return cluster.Peer{}, false
}

// federateResult serves a locally missing result from the hash's replica
// holders: fetch from the first live holder, and if it has not answered
// within the hedge delay, also ask the next — first VERIFIED response
// wins. A verified body this node should hold (it is among the hash's
// owners) is cache-filled so the next read is local. Returns false when
// no holder has the result (the caller 404s).
func (s *Server) federateResult(w http.ResponseWriter, r *http.Request, hash string) bool {
	var holders []cluster.Peer
	for _, p := range s.cl.Candidates(hash) {
		if p.ID != s.cl.Self().ID {
			holders = append(holders, p)
		}
	}
	if len(holders) == 0 {
		return false
	}
	data, sum, ok := s.fetchHedged(r.Context(), holders, hash)
	if !ok {
		return false
	}
	s.maybeCacheFill(hash, data)
	writeRawResult(w, data, sum)
	return true
}

// fetchHedged races checksum-verified fetches across the holders with a
// staggered start: holder 0 immediately, each next one after the hedge
// delay (or instantly once a predecessor fails). First verified body
// wins; the cancel then reels the losers back in, uncounted as fetch
// errors, and every launched fetch is received before the return, so
// none outlives the read and its counters and health report land first.
func (s *Server) fetchHedged(ctx context.Context, holders []cluster.Peer, hash string) ([]byte, string, bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type fetched struct {
		data []byte
		sum  string
	}
	ch := make(chan fetched, len(holders))
	next, outstanding := 0, 0
	launch := func() {
		p := holders[next]
		next++
		outstanding++
		go func() {
			data, sum, err := s.fetchRaw(ctx, p, hash)
			switch {
			case err == nil:
				s.fetches.Add(1)
			case !errors.Is(err, errNotHeld) && ctx.Err() == nil:
				s.fetchErrors.Add(1)
			}
			ch <- fetched{data, sum}
		}()
	}
	launch()
	hedge := time.NewTimer(s.hedge)
	defer hedge.Stop()
	var won fetched
wait:
	for outstanding > 0 {
		select {
		case f := <-ch:
			outstanding--
			if f.data != nil {
				won = f
				break wait
			}
			if next < len(holders) {
				launch()
			}
		case <-hedge.C:
			if next < len(holders) {
				s.hedged.Add(1)
				launch()
				hedge.Reset(s.hedge)
			}
		case <-ctx.Done():
			break wait
		}
	}
	cancel()
	for ; outstanding > 0; outstanding-- {
		<-ch
	}
	return won.data, won.sum, won.data != nil
}

// errNotHeld is fetchRaw's answer from a peer with no copy: a miss.
var errNotHeld = errors.New("peer holds no copy")

// fetchRaw pulls one outcome's exact bytes from a peer's internal raw
// endpoint and verifies them against the checksum header before returning.
func (s *Server) fetchRaw(ctx context.Context, p cluster.Peer, hash string) ([]byte, string, error) {
	resp, err := s.callPeer(ctx, s.fwdShort, "fetch", p, http.MethodGet, "/internal/results/"+hash, nil)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusNotFound {
			return nil, "", errNotHeld
		}
		return nil, "", fmt.Errorf("peer answered %s", resp.Status)
	}
	return readResult(resp)
}

// maybeCacheFill persists federated bytes locally when this node is one
// of the hash's ideal holders — a read-repair path that heals replicas
// that missed the original replication (down at the time, or added to
// the ring since).
func (s *Server) maybeCacheFill(hash string, data []byte) {
	for _, p := range s.cl.Owners(hash) {
		if p.ID != s.cl.Self().ID {
			continue
		}
		if err := s.mgr.Store().PutRaw(hash, data); err != nil {
			log.Printf("server: cache-filling %s: %v", hash[:12], err)
		} else {
			s.cacheFills.Add(1)
		}
		return
	}
}

// writeClusterMetrics appends the cluster series to /metrics.
func (s *Server) writeClusterMetrics(w io.Writer, counter func(name, help string, v uint64)) {
	counter("cluster_forwarded_total", "Submissions forwarded to the hash's owning node.", s.forwarded.Load())
	counter("cluster_failovers_total", "Forward attempts that failed over past an unreachable candidate.", s.failovers.Load())
	counter("cluster_replicated_total", "Completed results successfully offered to a replica holder.", s.replicated.Load())
	counter("cluster_replicate_errors_total", "Replication notifies that failed.", s.replErrors.Load())
	counter("cluster_result_fetches_total", "Verified result bodies fetched from peers.", s.fetches.Load())
	counter("cluster_result_fetch_errors_total", "Peer result fetches that failed or failed verification.", s.fetchErrors.Load())
	counter("cluster_hedged_reads_total", "Federated reads that fired a hedge request past the latency budget.", s.hedged.Load())
	counter("cluster_cache_fills_total", "Federated results persisted locally by read repair.", s.cacheFills.Load())
	counter("cluster_placed_total", "Cold single jobs whose simulation this node handed to the owner of their workload.", s.placed.Load())
	counter("cluster_placed_served_total", "Simulations run here for a peer that owns the job's hash.", s.placedServed.Load())
	counter("cluster_place_fallbacks_total", "Placements that fell back to simulating locally.", s.placeFallbacks.Load())
	fmt.Fprintf(w, "# HELP graspd_cluster_peer_up Peer health as probed locally (1 up, 0.5 suspect, 0 down).\n")
	fmt.Fprintf(w, "# TYPE graspd_cluster_peer_up gauge\n")
	for _, st := range s.cl.Snapshot() {
		v := 0.0
		switch st.State {
		case cluster.StateUp:
			v = 1
		case cluster.StateSuspect:
			v = 0.5
		}
		fmt.Fprintf(w, "graspd_cluster_peer_up{peer=%q} %g\n", st.ID, v)
	}
}

// sha256Hex digests data to lowercase hex.
func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
