// Package server is graspd's HTTP layer (DESIGN.md Sec. 10, docs/API.md):
// a thin REST surface over the jobs.Manager. It owns request decoding,
// status codes and the Prometheus-style metrics rendering; all scheduling,
// caching and dedup semantics live in internal/jobs.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/jobs"
)

// SubmitRequest is the body of POST /jobs: a job spec plus scheduling
// options that do not affect the result's content address.
type SubmitRequest struct {
	// Spec fields are inlined, so a client posts
	// {"kind":"single","graph":"lj","app":"PR","policy":"GRASP"}.
	jobs.Spec
	// Priority orders the queue; higher runs first (default 0).
	Priority int `json:"priority,omitempty"`
	// Wait blocks the request until the job finishes and returns the full
	// outcome inline (like GET /results/{hash}) instead of 202 + status.
	Wait bool `json:"wait,omitempty"`
}

// SubmitResponse is the body returned by POST /jobs when not waiting.
type SubmitResponse struct {
	// Status is the job snapshot (ID, hash, state, progress, ...).
	jobs.Status
	// Disposition is queued, cached or deduped.
	Disposition jobs.Disposition `json:"disposition"`
	// ResultURL is where the outcome is (or will be) addressable.
	ResultURL string `json:"result_url"`
}

// Options tunes the server's overload-protection behaviors; the zero
// value disables them all (New's behavior).
type Options struct {
	// RatePerSec bounds each client's POST /jobs submissions per second
	// with a token bucket; exceeding it returns 429 + Retry-After.
	// 0 disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket depth — how many submissions a client can
	// issue back-to-back before the per-second rate governs (minimum 1).
	Burst int
	// RetryAfter is the hint sent with 429 and 503 responses; 0 defaults
	// to 1 second.
	RetryAfter time.Duration
	// Cluster, when non-nil, turns on sharded job routing (DESIGN.md
	// Sec. 16): POST /jobs forwards to the hash's owning node with failover
	// to its successors, a cold single job simulates on the node that owns
	// its workload, completed results replicate to the successor, and
	// GET /results federates misses from replica holders with hedged,
	// checksum-verified fetches. Nil (the default) is single-node mode —
	// every request is served locally, byte-identically to pre-cluster
	// builds.
	Cluster *cluster.Cluster
	// HedgeDelay is how long a federated result read waits on the first
	// holder before also asking the next one (default 150ms). The first
	// verified response wins.
	HedgeDelay time.Duration
}

// Server handles graspd's REST endpoints. Create with New or NewWith; it
// implements http.Handler.
type Server struct {
	mgr         *jobs.Manager
	mux         *http.ServeMux
	started     time.Time
	lim         *limiter
	retryAfter  time.Duration
	rateLimited atomic.Uint64

	// Cluster mode (nil cl = single node; see internal/server/cluster.go).
	cl             *cluster.Cluster
	hedge          time.Duration
	fwdShort       *http.Client // forwarded non-wait submissions, fetches
	fwdLong        *http.Client // forwarded wait=true submissions, placed simulations (unbounded)
	replWG         sync.WaitGroup
	forwarded      atomic.Uint64
	failovers      atomic.Uint64
	replicated     atomic.Uint64
	replErrors     atomic.Uint64
	fetches        atomic.Uint64
	fetchErrors    atomic.Uint64
	hedged         atomic.Uint64
	cacheFills     atomic.Uint64
	placed         atomic.Uint64
	placedServed   atomic.Uint64
	placeFallbacks atomic.Uint64
}

// New wires the endpoints over the manager with no rate limiting.
func New(mgr *jobs.Manager) *Server { return NewWith(mgr, Options{}) }

// NewWith wires the endpoints over the manager with the given overload
// options.
func NewWith(mgr *jobs.Manager, opts Options) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), started: time.Now()}
	if opts.RatePerSec > 0 {
		s.lim = newLimiter(opts.RatePerSec, opts.Burst)
	}
	s.retryAfter = opts.RetryAfter
	if s.retryAfter <= 0 {
		s.retryAfter = time.Second
	}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /results/{hash}", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.Cluster != nil {
		s.enableCluster(opts.Cluster, opts.HedgeDelay)
	}
	return s
}

// retryableError writes an error with a Retry-After hint, telling
// well-behaved clients when to come back (both 429 and 503 responses
// carry it).
func (s *Server) retryableError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
	httpError(w, code, err)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxSubmitBody caps the POST /jobs request body. Job specs are a few
// hundred bytes (the largest field is a graph file path), so 1 MiB is
// generous while keeping an oversized or hostile body from being
// buffered without bound.
const maxSubmitBody = 1 << 20

// handleSubmit implements POST /jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Forwarded requests (hop guard header set by a peer's router) skip the
	// per-client rate limit — the originating node already charged its
	// client — and are NEVER re-forwarded, so divergent ring views cannot
	// bounce a submission between nodes. Only cluster mode honors the
	// header; a single node ignores it, so it cannot be forged to dodge
	// the rate limit there.
	isForwarded := s.cl != nil && r.Header.Get(forwardedHeader) != ""
	if !isForwarded && s.lim != nil && !s.lim.allow(clientKey(r.RemoteAddr), time.Now()) {
		s.rateLimited.Add(1)
		s.retryableError(w, http.StatusTooManyRequests, errors.New("submission rate limit exceeded"))
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if s.cl != nil && !isForwarded && s.routeSubmit(w, r, &req) {
		return
	}
	j, disp, err := s.mgr.Submit(req.Spec, req.Priority)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrDraining):
			s.retryableError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, jobs.ErrOverloaded):
			// Load shedding: the backlog is full, the submission had no
			// effect, and Retry-After tells the client when to try again.
			s.retryableError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	if req.Wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			httpError(w, 499, r.Context().Err()) // client closed request
			return
		}
		st := j.Status()
		if st.State == jobs.StateFailed {
			httpError(w, waitFailureCode(st.Error), errors.New(st.Error))
			return
		}
		writeJSON(w, http.StatusOK, j.Outcome())
		return
	}
	code := http.StatusAccepted
	if disp == jobs.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{
		Status:      j.Status(),
		Disposition: disp,
		ResultURL:   "/results/" + j.Hash,
	})
}

// waitFailureCode maps a waited-on job's terminal error to a status code:
// drain preemption is a transient condition (503, retry elsewhere), a
// cancellation raced the waiter (409), a deadline is the gateway-timeout
// shape (504), and anything else is a spec/execution error (422).
func waitFailureCode(msg string) int {
	switch msg {
	case jobs.ErrDraining.Error():
		return http.StatusServiceUnavailable
	case jobs.ErrCanceled.Error():
		return http.StatusConflict
	case jobs.ErrTimeout.Error():
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// handleCancel implements DELETE /jobs/{id}: 404 for unknown IDs, 409
// when the job already reached a terminal state (nothing to cancel — the
// outcome, if any, stands), 200 with the job's snapshot once the
// cancellation is accepted. A queued job settles immediately; a running
// one is preempted at its next cancellation point, so the snapshot may
// still say "running" — poll GET /jobs/{id} for the terminal state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Cancel(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if !ok {
		st := j.Status()
		httpError(w, http.StatusConflict, fmt.Errorf("job %s already %s", st.ID, st.State))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleJob implements GET /jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.Job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleResult implements GET /results/{hash}. In cluster mode a local
// hit serves the verified persisted bytes with their checksum header; a
// local miss of a spec hash federates to the hash's replica holders
// (hedged, checksum-verified) before answering 404, and any other key
// answers 404 without asking a peer. Single-node mode keeps the
// pre-cluster rendering byte for byte.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.cl != nil {
		if data, sum, ok := s.mgr.Store().GetRaw(hash); ok {
			writeRawResult(w, data, sum)
			return
		}
		// A degraded store (disk write failed) still serves from memory.
		if o := s.mgr.Result(hash); o != nil {
			writeJSON(w, http.StatusOK, o)
			return
		}
		if jobs.ValidHash(hash) && s.federateResult(w, r, hash) {
			return
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("no stored result for %q on any replica", hash))
		return
	}
	o := s.mgr.Result(hash)
	if o == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no stored result for %q", hash))
		return
	}
	writeJSON(w, http.StatusOK, o)
}

// handleHealthz implements GET /healthz — LIVENESS: it answers 200 as
// long as the process can serve HTTP at all, including while draining or
// degraded, because restarting a daemon that is finishing its last jobs
// or merely failing disk writes would make things worse, not better. The
// body carries the conditions (draining, degraded) for operators;
// routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.mgr.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"degraded":       s.mgr.Degraded(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"workers":        s.mgr.Workers(),
	})
}

// handleReadyz implements GET /readyz — READINESS: 503 while the daemon
// should not receive new traffic (draining toward shutdown, or the queue
// at its shed limit), 200 otherwise. Load balancers route on this; the
// process staying alive through a 503 here is exactly the point of the
// liveness/readiness split.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.mgr.Draining():
		s.retryableError(w, http.StatusServiceUnavailable, errors.New("draining"))
	case s.mgr.Overloaded():
		s.retryableError(w, http.StatusServiceUnavailable, errors.New("queue full"))
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

// handleMetrics implements GET /metrics in Prometheus text exposition
// format (hand-rendered; the container carries no client library).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.mgr.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP graspd_%s %s\n# TYPE graspd_%s gauge\n", name, help, name)
		fmt.Fprintf(w, "graspd_%s %g\n", name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP graspd_%s %s\n# TYPE graspd_%s counter\n", name, help, name)
		fmt.Fprintf(w, "graspd_%s %d\n", name, v)
	}
	counter("jobs_submitted_total", "Accepted job submissions (incl. cached and deduped).", m.Submitted)
	counter("jobs_executed_total", "Jobs actually simulated by a worker.", m.Executed)
	counter("jobs_completed_total", "Executions that finished successfully.", m.Completed)
	counter("jobs_failed_total", "Executions that errored (incl. drained queue entries).", m.Failed)
	counter("result_store_hits_total", "Submissions served from the persistent result store.", m.StoreHits)
	counter("inflight_dedup_hits_total", "Submissions merged onto an identical in-flight job.", m.DedupHits)
	counter("jobs_panics_total", "Job executions that panicked and were contained.", m.Panics)
	counter("jobs_canceled_total", "Honored job cancellation requests.", m.Canceled)
	counter("jobs_shed_total", "Submissions rejected at the queue-depth limit.", m.Shed)
	counter("jobs_requeued_total", "Journaled jobs re-enqueued by crash recovery at boot.", m.Requeued)
	counter("jobs_store_errors_total", "Failed result-store disk writes.", m.StoreErrors)
	counter("jobs_store_corrupt_total", "Result files quarantined after failing checksum verification.", m.StoreCorrupt)
	counter("jobs_journal_errors_total", "Failed journal appends.", m.JournalErrors)
	counter("rate_limited_total", "Submissions rejected by the per-client rate limit.", s.rateLimited.Load())
	work := m.Work
	fanOuts, consumers := work.FanOuts()
	counter("sim_runs_total", "Distinct result datapoints simulated (recording replays) by this node.", work.Full.Cells)
	counter("sampled_runs_total", "Distinct set-sampled fast-tier estimates computed by this node.", work.Sampled.Cells)
	counter("corun_runs_total", "Distinct shared-LLC co-run replays computed by this node.", work.Corun.Cells)
	counter("broadcast_groups_total", "Recording groups served via decode-once broadcast replay.", work.Full.FanOuts)
	counter("broadcast_replays_total", "Completed decode fan-outs of every tier (lone replays and OPT-study prefix replays included).", fanOuts)
	counter("broadcast_consumers_total", "Total replays served by those fan-outs.", consumers)
	counter("chunks_decoded_total", "Trace chunks decoded by masked (sampled) replays.", work.Skip.ChunksDecoded)
	counter("chunk_bytes_decoded_total", "Encoded bytes of chunks decoded by masked replays.", work.Skip.BytesDecoded)
	counter("accesses_pruned_total", "Records dropped inside the masked decode loop before materialization.", uint64(work.Skip.AccessesPruned))
	counter("accesses_delivered_total", "Records materialized and delivered to masked-replay consumers.", uint64(work.Skip.AccessesDelivered))
	gauge("cache_bytes_retained", "Bytes of recordings and file-backed graphs held by the process's one artifact store, all scales together (bounded by -cache-mb).", float64(m.CacheBytesRetained))
	gauge("jobs_queued", "Jobs waiting for a worker.", float64(m.Queued))
	gauge("jobs_running", "Jobs currently simulating.", float64(m.Running))
	gauge("stored_outcomes", "Outcomes in the persistent result store.", float64(m.StoredOutcomes))
	degraded := 0.0
	if m.Degraded {
		degraded = 1
	}
	gauge("degraded", "1 when any persistence write has failed (store or journal).", degraded)
	gauge("workers", "Worker pool size (concurrency bound).", float64(s.mgr.Workers()))
	gauge("uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	if s.cl != nil {
		s.writeClusterMetrics(w, counter)
	}
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError writes a JSON error body with the given status code.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// errorMessage reads back what httpError wrote: the message of a JSON
// error body, or "" when data is not one.
func errorMessage(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(data, &e) // not an error body: the message stays empty
	return e.Error
}
