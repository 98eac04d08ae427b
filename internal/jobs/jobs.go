// Package jobs is the batched, result-cached simulation job engine behind
// the graspd daemon (DESIGN.md Sec. 10): it accepts job specs (single
// simulations or whole paper experiments), content-addresses each by a
// canonical hash of everything that determines its result, serves repeat
// requests from a persistent on-disk store, deduplicates identical
// in-flight requests onto one execution, and schedules distinct work onto
// a bounded worker pool through a priority queue. Simulation itself runs
// on the exp.Session engine, so jobs that share datapoints (two
// experiments over the same matrix, a single run inside an experiment's
// grid) share workloads and results through its singleflight caches too.
package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"grasp/internal/apps"
	"grasp/internal/exp"
	"grasp/internal/fail"
	"grasp/internal/trace"
)

// Job states reported by Status.
const (
	// StateQueued means the job is waiting for a worker.
	StateQueued = "queued"
	// StateRunning means a worker is simulating the job.
	StateRunning = "running"
	// StateDone means the job completed and its outcome is stored.
	StateDone = "done"
	// StateFailed means the job errored (bad spec caught late, or drain).
	StateFailed = "failed"
)

// ErrDraining is returned by Submit once Shutdown has begun: the daemon
// finishes running work but accepts no more.
var ErrDraining = errors.New("jobs: manager is draining")

// ErrCanceled is the terminal error of a job cancelled through Cancel:
// the work was preempted at the next cancellation point, never completed,
// and nothing was stored under its hash.
var ErrCanceled = errors.New("jobs: canceled")

// ErrTimeout is the terminal error of a job that exceeded its wall-clock
// budget (Spec.TimeoutS, or the manager's default deadline).
var ErrTimeout = errors.New("jobs: deadline exceeded")

// ErrOverloaded is returned by Submit when the queue is at its configured
// depth limit: the daemon sheds the new work instead of accumulating an
// unbounded backlog. The submission had no effect; clients retry later
// (the HTTP layer translates this to 503 + Retry-After).
var ErrOverloaded = errors.New("jobs: queue full")

// ErrNotReproducible is returned by ExecutePlaced when this node cannot
// reproduce the address a run was placed under — the spec does not
// canonicalize, its graph identity or hash cannot be computed, or it
// hashes elsewhere (a hashVersion skew mid-upgrade, a graph file whose
// bytes differ here). Nothing was simulated.
var ErrNotReproducible = errors.New("jobs: cannot reproduce the placed address")

// Job is one tracked submission. All mutable state is behind a mutex;
// readers use Status for a consistent snapshot and Done to block until
// completion. Deduplicated submissions share one *Job (same ID).
type Job struct {
	// ID is the daemon-unique job identifier (j000001, ...).
	ID string
	// Hash is the content address of the canonicalized spec.
	Hash string
	// Spec is the canonicalized spec.
	Spec Spec
	// Priority orders the queue: higher runs first, ties FIFO. It can
	// only rise after creation (queue.Boost, when a higher-priority
	// duplicate joins this job); writes are guarded by the queue lock
	// plus mu, so Status snapshots stay consistent.
	Priority int
	// Submitted is when the job entered the manager.
	Submitted time.Time

	// graphID is the graph content identity the spec hash digested
	// ("file:<sha256>" for file-backed graphs); runJob re-verifies it
	// after execution so an edit while the job waited cannot persist the
	// new file's metrics under the old content address.
	graphID string

	// journaled marks jobs whose submission was journaled, so settle
	// knows to journal the matching settlement.
	journaled bool

	mu       sync.Mutex
	state    string
	progress float64
	errMsg   string
	started  time.Time
	finished time.Time
	cached   bool
	outcome  *Outcome
	done     chan struct{}
	// cancelRequested is set by Cancel; a worker that pops the job checks
	// it before starting, closing the race between a cancel of a queued
	// job and the pop that would have run it. cancel is the running job's
	// context canceller, installed by runJob.
	cancelRequested bool
	cancel          context.CancelCauseFunc
}

// Status is a consistent, JSON-ready snapshot of a job's state.
type Status struct {
	// ID, Hash, Spec and Priority mirror the Job's immutable identity.
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	Spec     Spec   `json:"spec"`
	Priority int    `json:"priority"`
	// State is one of queued, running, done, failed.
	State string `json:"state"`
	// Progress is the completed fraction in [0, 1] (datapoint granularity
	// for experiments; 0-or-1 for single runs).
	Progress float64 `json:"progress"`
	// Cached reports that the outcome came from the result store without
	// re-simulating.
	Cached bool `json:"cached"`
	// Error is the failure message when State is failed.
	Error string `json:"error,omitempty"`
	// Submitted/Started/Finished are the lifecycle timestamps (the zero
	// time, marshaled as 0001-01-01, means the stage was not reached yet).
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, Hash: j.Hash, Spec: j.Spec, Priority: j.Priority,
		State: j.state, Progress: j.progress, Cached: j.cached, Error: j.errMsg,
		Submitted: j.Submitted, Started: j.started, Finished: j.finished,
	}
}

// Done returns a channel closed when the job reaches done or failed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Outcome returns the completed result, or nil while the job is live or
// after a failure.
func (j *Job) Outcome() *Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcome
}

// setProgress records a completion fraction, keeping the maximum seen so
// out-of-order callbacks from the parallel prefetch never move it back.
func (j *Job) setProgress(p float64) {
	j.mu.Lock()
	if p > j.progress {
		j.progress = p
	}
	j.mu.Unlock()
}

// Disposition classifies what Submit did with a spec.
type Disposition string

// Submit dispositions.
const (
	// Queued: new work, enqueued for a worker.
	Queued Disposition = "queued"
	// Cached: the result store already held the outcome; the returned job
	// is born completed.
	Cached Disposition = "cached"
	// Deduped: an identical job is already queued or running; the returned
	// job IS that job (same ID), and its one execution serves both callers.
	Deduped Disposition = "deduped"
)

// Manager owns the job lifecycle: hash → store lookup → in-flight dedup →
// priority queue → worker pool → store write-back. One Manager serves a
// whole daemon; it is safe for concurrent use.
type Manager struct {
	store   *Store
	workers int

	q  *queue
	wg sync.WaitGroup

	// preemptCtx is the parent of every job context; preempt cancels it
	// (cause ErrDraining) when Shutdown's drain deadline expires, pulling
	// every running simulation out at its next cancellation point. Nil in
	// hand-built test managers — jobContext falls back to Background.
	preemptCtx context.Context
	preempt    context.CancelCauseFunc

	// onStored, when set, observes every outcome freshly persisted by this
	// node (not cache hits, not failures): the cluster layer hangs result
	// replication off it. Called from the worker goroutine — implementations
	// must not block (the server's replicator goes async immediately).
	onStored atomic.Pointer[func(hash string)]

	// placer, when set, is asked where a cold KindSingle job simulates (see
	// SetPlacer); unset — single-node mode — execute is simulate.
	placer atomic.Pointer[func(ctx context.Context, key string, spec Spec, hash string) (*Outcome, bool, error)]
	// placeSem admits `workers` placed runs (ExecutePlaced) at a time, beside
	// the pool and never through it: a worker blocked on a peer's answer
	// cannot starve the run that peer is waiting on here. placeWaiting counts
	// the runs queued on it, bounded by queueLimit.
	placeSem     chan struct{}
	placeWaiting atomic.Int64

	mu             sync.Mutex
	cache          *exp.Store              // the one memory owner every session draws on
	sessions       map[uint32]*exp.Session // one simulation session per scale divisor
	defaultTimeout time.Duration           // deadline for jobs with no TimeoutS; 0 = none
	queueLimit     int                     // max queued jobs before Submit sheds; 0 = unbounded
	journal        *Journal                // crash-recovery log; nil = no journaling
	byID           map[string]*Job
	byHash         map[string]*Job // in-flight (queued/running) jobs only
	retired        []string        // terminal job IDs, oldest first, for bounded retention
	draining       bool

	idSeq         atomic.Uint64
	running       atomic.Int64
	submitted     atomic.Uint64
	executed      atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	storeHits     atomic.Uint64
	dedupHits     atomic.Uint64
	panics        atomic.Uint64
	canceled      atomic.Uint64
	shed          atomic.Uint64
	requeued      atomic.Uint64
	storeErrors   atomic.Uint64
	journalErrors atomic.Uint64
}

// NewManager starts a manager with the given result store and worker
// count (minimum 1) and returns it running.
func NewManager(store *Store, workers int) *Manager {
	if workers < 1 {
		workers = 1
	}
	m := &Manager{
		store:    store,
		workers:  workers,
		q:        newQueue(),
		placeSem: make(chan struct{}, workers),
		cache:    exp.NewStore(0),
		sessions: make(map[uint32]*exp.Session),
		byID:     make(map[string]*Job),
		byHash:   make(map[string]*Job),
	}
	m.preemptCtx, m.preempt = context.WithCancelCause(context.Background())
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Workers returns the size of the worker pool (the concurrency bound).
func (m *Manager) Workers() int { return m.workers }

// Submit canonicalizes and hashes the spec, then either returns the
// stored outcome (Cached), joins an identical in-flight job (Deduped), or
// enqueues new work (Queued). The returned job is registered and can be
// polled by ID in every case. With a queue limit configured, Submit sheds
// genuinely new work (never cache hits or dedup joins) with ErrOverloaded
// once the backlog reaches the limit; with a journal attached, a Queued
// disposition implies the submission is fsync'd and survives a crash.
func (m *Manager) Submit(spec Spec, priority int) (*Job, Disposition, error) {
	return m.submit(spec, priority, true)
}

// submit is Submit with control over journaling: crash recovery
// re-enqueues jobs that are already in the journal and must not append
// duplicate submit records for them.
func (m *Manager) submit(spec Spec, priority int, record bool) (*Job, Disposition, error) {
	if err := spec.Canonicalize(); err != nil {
		return nil, "", err
	}
	gid, hash, err := spec.identityAndHash()
	if err != nil {
		return nil, "", err
	}
	now := time.Now()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, "", ErrDraining
	}
	if o := m.store.Get(hash); o != nil {
		m.storeHits.Add(1)
		m.submitted.Add(1)
		j := &Job{
			ID: m.nextID(), Hash: hash, Spec: spec, Priority: priority,
			Submitted: now, state: StateDone, progress: 1, cached: true,
			outcome: o, done: make(chan struct{}),
		}
		j.finished = now
		close(j.done)
		m.byID[j.ID] = j
		m.retireLocked(j.ID)
		return j, Cached, nil
	}
	if lead := m.byHash[hash]; lead != nil {
		m.dedupHits.Add(1)
		m.submitted.Add(1)
		// The joining caller's priority still counts: the shared job runs
		// at the highest priority any of its submitters asked for.
		m.q.Boost(lead, priority)
		return lead, Deduped, nil
	}
	if m.queueLimit > 0 && m.q.Depth() >= m.queueLimit {
		m.shed.Add(1)
		return nil, "", ErrOverloaded
	}
	j := &Job{
		ID: m.nextID(), Hash: hash, Spec: spec, Priority: priority,
		Submitted: now, state: StateQueued, done: make(chan struct{}),
		graphID: gid, journaled: m.journal != nil,
	}
	if !m.q.Push(j) {
		return nil, "", ErrDraining
	}
	if record && m.journal != nil {
		if jerr := m.journal.Submitted(hash, spec, priority); jerr != nil {
			// The job still runs; only its crash durability degraded.
			// Surface through the degraded flag rather than failing the
			// submission.
			m.journalErrors.Add(1)
			log.Printf("jobs: journaling %s: %v", hash, jerr)
		}
	}
	m.submitted.Add(1)
	m.byID[j.ID] = j
	m.byHash[hash] = j
	return j, Queued, nil
}

// Cancel requests cancellation of a job by ID. It returns the job (nil if
// unknown) and whether the request took effect: a queued job is removed
// and settled as failed with ErrCanceled immediately; a running job is
// preempted at its next cancellation point (a trace-chunk or datapoint
// boundary — the caller observes settlement via Done). false with a
// non-nil job means the job had already reached a terminal state.
// Cancelling a deduplicated job cancels it for every submitter that
// joined it.
func (m *Manager) Cancel(id string) (*Job, bool) {
	m.mu.Lock()
	j := m.byID[id]
	m.mu.Unlock()
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return j, false
	}
	j.cancelRequested = true
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	m.canceled.Add(1)
	if state == StateQueued && m.q.Remove(j) {
		// The queue lock guarantees no worker will pop it now; settle it
		// here. If Remove lost the race, the worker that popped it sees
		// cancelRequested before starting (or through the cancel func
		// installed by runJob) and settles it itself.
		m.settle(j, nil, ErrCanceled)
		return j, true
	}
	if cancel != nil {
		cancel(ErrCanceled)
	}
	return j, true
}

// UseJournal attaches the crash-recovery journal and re-enqueues the
// pending jobs a previous process left behind (the second return of
// OpenJournal), returning how many were requeued. Pending jobs whose
// outcome is already in the store — the crash hit between the store write
// and the settle record — are settled in the journal instead of re-run.
// Call it once, before serving traffic.
func (m *Manager) UseJournal(jn *Journal, pending []PendingJob) int {
	m.mu.Lock()
	m.journal = jn
	m.mu.Unlock()
	requeued := 0
	for _, p := range pending {
		if m.store.Get(p.Hash) != nil {
			if err := jn.Settled(p.Hash); err != nil {
				m.journalErrors.Add(1)
				log.Printf("jobs: journaling recovered %s: %v", p.Hash, err)
			}
			continue
		}
		if _, disp, err := m.submit(p.Spec, p.Priority, false); err != nil {
			// A spec that no longer canonicalizes (e.g. a deleted graph
			// file) cannot run again; drop it from future recoveries.
			log.Printf("jobs: dropping unrecoverable journaled job %s: %v", p.Hash, err)
			if jerr := jn.Settled(p.Hash); jerr != nil {
				m.journalErrors.Add(1)
			}
		} else if disp == Queued {
			requeued++
			m.requeued.Add(1)
		}
	}
	return requeued
}

// SetDefaultTimeout sets the wall-clock budget applied to jobs that do
// not carry their own Spec.TimeoutS (0 = no default). Set it before
// serving traffic.
func (m *Manager) SetDefaultTimeout(d time.Duration) {
	m.mu.Lock()
	m.defaultTimeout = d
	m.mu.Unlock()
}

// SetQueueLimit bounds the backlog: once the queue holds n jobs, Submit
// sheds new work with ErrOverloaded (0 = unbounded). Cache hits and dedup
// joins are never shed — they consume no queue slot. Set it before
// serving traffic.
func (m *Manager) SetQueueLimit(n int) {
	m.mu.Lock()
	m.queueLimit = n
	m.mu.Unlock()
}

// Overloaded reports whether the queue is at its configured limit (the
// readiness signal behind /readyz).
func (m *Manager) Overloaded() bool {
	m.mu.Lock()
	limit := m.queueLimit
	m.mu.Unlock()
	return limit > 0 && m.q.Depth() >= limit
}

// Degraded reports whether any persistence write (result store or
// journal) has failed over the manager's lifetime: results are still
// served from memory, but crash durability is compromised and the
// operator should look at the disk.
func (m *Manager) Degraded() bool {
	return m.storeErrors.Load()+m.journalErrors.Load() > 0
}

// SetOnStored installs the freshly-persisted-outcome observer (see the
// field doc); the cluster layer uses it to start result replication the
// moment an owner finishes a job. Set it before serving traffic.
func (m *Manager) SetOnStored(hook func(hash string)) {
	m.onStored.Store(&hook)
}

// SetPlacer installs the cluster layer's placement hook: a worker about to
// simulate a cold KindSingle job first hands the hook the job's workload
// key (Spec.PlacementKey), spec and hash. placed=false means "simulate
// here"; placed=true means a peer ran the simulation and (o, err) is its
// answer — o bare, as ExecutePlaced returns it; runJob stamps, stores and
// settles it exactly as a local result. The hook runs on the worker, inside
// the job's context and panic barrier. Set it before serving traffic.
func (m *Manager) SetPlacer(place func(ctx context.Context, key string, spec Spec, hash string) (o *Outcome, placed bool, err error)) {
	m.placer.Store(&place)
}

// Store exposes the manager's result store: the cluster layer serves and
// fills raw, checksummed outcome bytes through it.
func (m *Manager) Store() *Store { return m.store }

// Job returns the tracked job with the given ID, or nil.
func (m *Manager) Job(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byID[id]
}

// Result returns the stored outcome for a spec hash, or nil.
func (m *Manager) Result(hash string) *Outcome { return m.store.Get(hash) }

// nextID mints a job ID; the caller holds m.mu (only for byID insertion —
// the counter itself is atomic so IDs stay unique regardless).
func (m *Manager) nextID() string {
	return fmt.Sprintf("j%06d", m.idSeq.Add(1))
}

// SetCacheBudget replaces the cap on the recordings and file-backed
// graphs retained by every session of the manager, whatever its scale
// (exp.Store.SetBudget: 0 = the exp default, negative = unlimited); what
// the new cap no longer admits is evicted at once. The cap does not enter
// job hashes (it changes memory management, never simulated results).
func (m *Manager) SetCacheBudget(n int64) { m.cache.SetBudget(n) }

// sessionFor returns the simulation session for one scale divisor,
// creating it on first use. Sessions persist for the manager's lifetime,
// so every job at a given scale shares workloads, results and traces;
// what recordings and file-backed graphs pin, at every scale together, is
// bounded by the one store's budget (see SetCacheBudget).
func (m *Manager) sessionFor(scale uint32) *exp.Session {
	if scale == 0 {
		scale = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[scale]
	if !ok {
		s = m.cache.Session(configForScale(scale))
		m.sessions[scale] = s
	}
	return s
}

// worker is the run loop of one pool goroutine: pop by priority, execute,
// write back, until the queue closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.q.Pop()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// preemptParent is the context every simulation on this manager descends
// from: the preempt context, or Background in hand-built test managers.
func (m *Manager) preemptParent() context.Context {
	if m.preemptCtx == nil {
		return context.Background()
	}
	return m.preemptCtx
}

// jobContext derives the cancellation context one job runs under: child
// of the manager's preempt context (so Shutdown can pull every running
// job out), cancellable per job (Cancel), and deadlined when the spec or
// the manager carries a timeout.
func (m *Manager) jobContext(j *Job) (context.Context, context.CancelCauseFunc) {
	ctx, cancel := context.WithCancelCause(m.preemptParent())
	m.mu.Lock()
	d := m.defaultTimeout
	m.mu.Unlock()
	if j.Spec.TimeoutS > 0 {
		d = time.Duration(j.Spec.TimeoutS * float64(time.Second))
	}
	if d <= 0 {
		return ctx, cancel
	}
	tctx, tcancel := context.WithTimeoutCause(ctx, d, ErrTimeout)
	return tctx, func(cause error) {
		tcancel()
		cancel(cause)
	}
}

// translateRunError rewrites a raw cancellation that bubbled out of the
// simulation engine as the job-level cause — ErrCanceled, ErrTimeout or
// ErrDraining — so the settled error says WHY the job was preempted, not
// just that a context somewhere expired.
func translateRunError(ctx context.Context, err error) error {
	if err == nil || ctx.Err() == nil {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

// runJob executes one job and settles it (outcome stored + done closed,
// or failed).
func (m *Manager) runJob(j *Job) {
	m.running.Add(1)
	defer m.running.Add(-1)
	ctx, cancel := m.jobContext(j)
	defer cancel(nil)
	j.mu.Lock()
	if j.cancelRequested {
		// Cancelled while queued but popped before (or despite) the
		// queue removal; honor the cancel without starting the work.
		j.mu.Unlock()
		m.settle(j, nil, ErrCanceled)
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()

	m.executed.Add(1)
	start := time.Now()
	outcome, err := m.executeRecovered(ctx, j, m.execute)
	if err != nil {
		m.settle(j, nil, translateRunError(ctx, err))
		return
	}
	if err := j.verifyGraphIdentity(); err != nil {
		m.settle(j, nil, err)
		return
	}
	outcome.Hash = j.Hash
	outcome.Spec = j.Spec
	outcome.Elapsed = time.Since(start).Seconds()
	outcome.Finished = time.Now()
	if perr := m.store.Put(outcome); perr != nil {
		// The in-memory index still serves it; losing persistence across
		// restarts is worth surfacing but not failing the job over.
		m.storeErrors.Add(1)
		log.Printf("jobs: persisting %s: %v", j.Hash, perr)
	} else if hook := m.onStored.Load(); hook != nil {
		(*hook)(j.Hash)
	}
	m.settle(j, outcome, nil)
}

// maxRetainedJobs bounds how many terminal jobs stay pollable by ID: a
// long-lived daemon would otherwise grow byID with every submission
// (including every cache hit, which mints a fresh Job). Evicted jobs 404
// on GET /jobs/{id}; their outcomes remain addressable by hash forever.
const maxRetainedJobs = 4096

// retireLocked records a terminal job for bounded retention, evicting the
// oldest terminal jobs beyond the cap. Caller holds m.mu. In-flight jobs
// are never evicted (they retire only via settle).
func (m *Manager) retireLocked(id string) {
	m.retired = append(m.retired, id)
	for len(m.retired) > maxRetainedJobs {
		delete(m.byID, m.retired[0])
		m.retired = m.retired[1:]
	}
}

// settle moves a finished job to its terminal state and releases the
// in-flight dedup slot. Journaled jobs get a settle record — EXCEPT those
// failed out by a drain: a drain is a restart in progress, and leaving
// them pending means the rebooted daemon re-enqueues and finishes them
// instead of losing acknowledged work.
func (m *Manager) settle(j *Job, o *Outcome, err error) {
	m.mu.Lock()
	delete(m.byHash, j.Hash)
	m.retireLocked(j.ID)
	jn := m.journal
	m.mu.Unlock()
	if j.journaled && jn != nil && !errors.Is(err, ErrDraining) {
		if jerr := jn.Settled(j.Hash); jerr != nil {
			m.journalErrors.Add(1)
			log.Printf("jobs: journaling settlement of %s: %v", j.Hash, jerr)
		}
	}
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		m.failed.Add(1)
	} else {
		j.state = StateDone
		j.progress = 1
		j.outcome = o
		m.completed.Add(1)
	}
	j.mu.Unlock()
	close(j.done)
}

// executeRecovered wraps run (execute for a job, simulate for a placed run)
// in the manager's fault barrier: a panic anywhere under the job — a policy
// bug, a corrupted graph file, an injected fault — becomes that job's
// failure (stack attached) instead of killing the daemon and every other
// job with it. The "jobs.execute" failpoint lets the chaos suite drive both
// the error and the panic path.
func (m *Manager) executeRecovered(ctx context.Context, j *Job, run func(context.Context, *Job) (*Outcome, error)) (o *Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			if aerr, ok := trace.AbortError(p); ok {
				// A cooperative-cancellation abort that escaped the
				// engine's own recovery; it is an error, not a fault.
				o, err = nil, aerr
				return
			}
			m.panics.Add(1)
			o, err = nil, fmt.Errorf("jobs: job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if ferr := fail.Hit("jobs.execute"); ferr != nil {
		return nil, ferr
	}
	return run(ctx, j)
}

// execute produces one job's outcome: by simulating here, or — when the
// cluster layer installed a placer and it names a live peer as the owner of
// the job's workload — by that peer simulating it (DESIGN.md Sec. 16,
// Placement). Experiments are never placed.
func (m *Manager) execute(ctx context.Context, j *Job) (*Outcome, error) {
	if place := m.placer.Load(); place != nil && j.Spec.Kind == KindSingle {
		if o, placed, err := (*place)(ctx, j.Spec.placementKey(j.graphID), j.Spec, j.Hash); placed {
			return o, err
		}
	}
	return m.simulate(ctx, j)
}

// ExecutePlaced simulates one spec for the peer that owns its hash — the
// serving half of cluster placement. The run is not a job here: no queue
// slot, journal record, store write or counter; it never consults the
// placer (so placement is one hop by construction) and returns the bare
// outcome for the owner to stamp and store. It keeps a job's guards: the
// panic barrier, the preempt context (ErrDraining at the drain deadline;
// refused outright once draining), ctx — the owner's cancel and deadline
// arrive through it — and the post-run graph-identity check, against the
// identity that hashes to the hash the owner asked for. A spec that does
// not reproduce hash here is refused with ErrNotReproducible. At most
// `workers` placed runs simulate at once; more wait, up to the queue
// limit, beyond which the run is refused with ErrOverloaded.
func (m *Manager) ExecutePlaced(ctx context.Context, spec Spec, hash string) (*Outcome, error) {
	err := spec.Canonicalize()
	var gid, got string
	if err == nil {
		gid, got, err = spec.identityAndHash()
	}
	if err == nil && got != hash {
		err = fmt.Errorf("spec hashes to %.12s here, not %.12s", got, hash)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotReproducible, err)
	}
	m.mu.Lock()
	switch {
	case m.draining:
		m.mu.Unlock()
		return nil, ErrDraining
	case m.queueLimit > 0 && int(m.placeWaiting.Load()) >= m.queueLimit:
		m.mu.Unlock()
		return nil, ErrOverloaded
	}
	m.placeWaiting.Add(1)
	m.wg.Add(1) // under mu, so Shutdown's Wait sees every admitted run
	m.mu.Unlock()
	defer m.wg.Done()

	rctx, cancel := context.WithCancelCause(m.preemptParent())
	defer cancel(nil)
	stop := context.AfterFunc(ctx, func() { cancel(context.Cause(ctx)) })
	defer stop()
	select {
	case m.placeSem <- struct{}{}:
		m.placeWaiting.Add(-1)
	case <-rctx.Done():
		m.placeWaiting.Add(-1)
		return nil, context.Cause(rctx)
	}
	defer func() { <-m.placeSem }()

	j := &Job{Hash: hash, Spec: spec, graphID: gid}
	o, err := m.executeRecovered(rctx, j, m.simulate)
	if err != nil {
		return nil, translateRunError(rctx, err)
	}
	if err := j.verifyGraphIdentity(); err != nil {
		return nil, err
	}
	return o, nil
}

// simulate runs one job on the manager's session for the job's scale.
func (m *Manager) simulate(ctx context.Context, j *Job) (*Outcome, error) {
	return Simulate(ctx, m.sessionFor(j.Spec.Scale), j.Spec, j.setProgress)
}

// Simulate produces a canonicalized spec's outcome on the session engine,
// honoring ctx at datapoint and trace-chunk boundaries: the one dispatch
// from a Spec to a simulation tier (sampled, co-run, full) or an experiment
// body. A daemon's workers, placed runs and a local `graspsim -graph` all
// run it. The session must be configured for spec.Scale (Spec.Config);
// progress, which may be nil, receives an experiment's completed fraction.
// The outcome is bare: Hash, Spec, Elapsed and Finished are the caller's.
func Simulate(ctx context.Context, s *exp.Session, spec Spec, progress func(float64)) (*Outcome, error) {
	switch spec.Kind {
	case KindSingle:
		if spec.Fidelity == FidelitySampled {
			r, err := s.SampledResultCtx(ctx, spec.Graph, spec.Reorder, spec.App, apps.LayoutMerged, spec.Policy, spec.SampleK)
			if err != nil {
				return nil, err
			}
			return &Outcome{Sampled: &r}, nil
		}
		if len(spec.CorunApps) > 0 {
			mix := append([]string{spec.App}, spec.CorunApps...)
			r, err := s.CorunResultCtx(ctx, spec.Graph, spec.Reorder, mix, spec.CorunRatio, apps.LayoutMerged, spec.Policy)
			if err != nil {
				return nil, err
			}
			return &Outcome{Corun: &r}, nil
		}
		r, err := s.ResultCtx(ctx, spec.Graph, spec.Reorder, spec.App, apps.LayoutMerged, spec.Policy)
		if err != nil {
			return nil, err
		}
		return &Outcome{Single: &r}, nil
	case KindExperiment:
		e, err := exp.ByID(spec.Exp)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := exp.Run(ctx, s, e, &buf, func(done, total int) {
			if progress != nil {
				// Hold the last percent back for the render step.
				progress(0.99 * float64(done) / float64(total))
			}
		}); err != nil {
			return nil, err
		}
		return &Outcome{Output: buf.String()}, nil
	}
	return nil, fmt.Errorf("jobs: unknown job kind %q", spec.Kind)
}

// shutdownGrace bounds how long Shutdown waits for preempted jobs to
// reach a cancellation point after the drain deadline expired. Generous:
// cancellation points are one trace chunk apart, but a worker can be deep
// in a non-preemptible stretch (a Gorder reordering pass) on a loaded
// host.
const shutdownGrace = 30 * time.Second

// Shutdown drains the manager: no new submissions are accepted, queued
// jobs that never started are failed out immediately, and running
// simulations are given until ctx expires to finish. When the deadline
// passes, the remaining jobs are PREEMPTED (cancelled with cause
// ErrDraining) and given a bounded grace period to unwind through their
// next cancellation point and settle; only if even that expires are they
// abandoned to process exit. Journaled jobs failed by the drain keep
// their pending records, so a rebooted daemon re-enqueues them. Placed
// runs (ExecutePlaced) drain with the jobs: new ones are refused from the
// first moment, admitted ones are waited for and preempted the same way.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.mu.Unlock()
	for _, j := range m.q.Close() {
		m.settle(j, nil, ErrDraining)
	}
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	if m.preempt != nil {
		m.preempt(ErrDraining)
	}
	grace := time.NewTimer(shutdownGrace)
	defer grace.Stop()
	select {
	case <-drained:
		return nil
	case <-grace.C:
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Metrics is a point-in-time counter snapshot for the /metrics endpoint.
type Metrics struct {
	// Submitted counts every accepted Submit (including cached/deduped).
	Submitted uint64
	// Executed counts jobs a worker actually simulated.
	Executed uint64
	// Completed and Failed count terminal executions.
	Completed, Failed uint64
	// StoreHits counts submissions served straight from the result store;
	// DedupHits counts submissions merged onto an in-flight job.
	StoreHits, DedupHits uint64
	// Panics counts jobs that failed via a recovered panic (the fault-
	// containment barrier); a non-zero value means a simulation crashed
	// without taking the daemon down.
	Panics uint64
	// Canceled counts honored cancellation requests; Shed counts
	// submissions rejected at the queue-depth limit; Requeued counts
	// journaled jobs re-enqueued by crash recovery at boot.
	Canceled, Shed, Requeued uint64
	// StoreErrors and JournalErrors count failed persistence writes
	// (outcome files, journal appends). Any non-zero value sets Degraded.
	StoreErrors, JournalErrors uint64
	// StoreCorrupt counts result files quarantined after failing checksum
	// verification (renamed aside with .corrupt; the job re-executes on
	// its next submission instead of serving bad bytes).
	StoreCorrupt uint64
	// Degraded reports compromised persistence: results still serve from
	// memory, but outcomes or journal records are not reaching disk.
	Degraded bool
	// Queued and Running describe the pool right now.
	Queued, Running int
	// StoredOutcomes is the size of the persistent result store.
	StoredOutcomes int
	// SimRuns is the number of distinct result datapoints simulated across
	// all sessions — each one replay of its group's recording (the
	// engine-level dedup observability counter).
	SimRuns uint64
	// SampledRuns counts distinct set-sampled fast-tier estimates computed
	// across all sessions (DESIGN.md Sec. 14).
	SampledRuns uint64
	// CorunRuns counts distinct shared-LLC co-run replays computed across
	// all sessions (DESIGN.md Sec. 15).
	CorunRuns uint64
	// BroadcastGroups counts recording groups served through the
	// decode-once broadcast path across all sessions; BroadcastReplays is
	// the process-wide count of completed broadcast fan-outs and
	// BroadcastConsumers the total replays they served (trace-engine
	// counters: every full-fidelity replay is a fan-out, so a lone
	// policy's replay counts as one with one consumer, and the OPT study's
	// bounded-prefix fan-outs count too). Together with SimRuns these
	// expose whether multi-policy sweeps are actually riding the broadcast
	// decoder.
	BroadcastGroups, BroadcastReplays, BroadcastConsumers uint64
	// Skip is the process-wide codec-layer accounting of masked (sampled)
	// replays: chunks decoded, their encoded bytes, and records pruned vs
	// delivered (DESIGN.md Sec. 14). Exposes whether the sampled tier is
	// actually dodging decode work in production, not only in BENCH files.
	Skip trace.SkipReport
	// CacheBytesRetained is the total bytes of recordings and file-backed
	// graphs retained by the manager's one store, at every scale (bounded
	// by the cache budget): non-zero while they are being reused across
	// requests, not recomputed.
	CacheBytesRetained int64
}

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	var simRuns, sampledRuns, corunRuns, broadcastGroups uint64
	m.mu.Lock()
	for _, s := range m.sessions {
		simRuns += s.SimRuns()
		sampledRuns += s.SampledRuns()
		corunRuns += s.CorunRuns()
		broadcastGroups += s.Broadcasts()
	}
	m.mu.Unlock()
	broadcastReplays, broadcastConsumers := trace.BroadcastStats()
	return Metrics{
		BroadcastGroups:    broadcastGroups,
		BroadcastReplays:   broadcastReplays,
		BroadcastConsumers: broadcastConsumers,
		Skip:               trace.SkipStats(),
		CacheBytesRetained: m.cache.CacheBytesRetained(),
		Submitted:          m.submitted.Load(),
		Executed:           m.executed.Load(),
		Completed:          m.completed.Load(),
		Failed:             m.failed.Load(),
		StoreHits:          m.storeHits.Load(),
		DedupHits:          m.dedupHits.Load(),
		Panics:             m.panics.Load(),
		Canceled:           m.canceled.Load(),
		Shed:               m.shed.Load(),
		Requeued:           m.requeued.Load(),
		StoreErrors:        m.storeErrors.Load(),
		JournalErrors:      m.journalErrors.Load(),
		StoreCorrupt:       m.store.Corrupt(),
		Degraded:           m.storeErrors.Load()+m.journalErrors.Load() > 0,
		Queued:             m.q.Depth(),
		Running:            int(m.running.Load()),
		StoredOutcomes:     m.store.Len(),
		SimRuns:            simRuns,
		SampledRuns:        sampledRuns,
		CorunRuns:          corunRuns,
	}
}
