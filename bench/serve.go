package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/exp"
	"grasp/internal/jobs"
	"grasp/internal/server"
)

func runServeSingle(e *env) (*outcome, error)   { return runServe(e, 1, 2) }
func runServeCluster3(e *env) (*outcome, error) { return runServe(e, 3, 1) }

const (
	storedScale  = 64 // the pre-stored outcomes hits and reads find
	coldScale    = 16 // never-seen specs of the timed phase
	serveClients = 2  // closed loop: graspd's callers each wait for their reply
)

// opClass is a request class of the serve schedule.
type opClass int

const (
	classHit         opClass = iota // POST wait=true of a stored spec
	classRead                       // GET /results/{hash} of a stored spec
	classColdFull                   // POST wait=true of a never-seen full-fidelity spec
	classColdSampled                // the same at fidelity sampled, K=4
	classJoin                       // POST wait=false then POST wait=true of one never-seen spec
	numClasses
)

var classNames = [numClasses]string{"hit", "read", "cold_full", "cold_sampled", "join"}

// sizing fixes how much work a schedule holds. Fixed counts, not a
// deadline, so that every count metric repeats exactly and a slower system
// shows as a longer wall_s. Never-seen and stored specs are counted per
// (app, dataset) group: every seed's schedule then carries the same
// recordings and the same simulations bar the policy, and the seed cannot
// move wall_s by choosing cheap or costly apps.
type sizing struct {
	apps, datasets []string
	hits, reads    int
	stored         int // per group, at storedScale
	full, sampled  int // per group, at coldScale
	joins          int // per group, at coldScale, full fidelity
}

func (z sizing) groups() int { return len(z.apps) * len(z.datasets) }

// sizeFor scales the schedule with -seconds: on the reference host the two
// clients of serve-single finish it in about that many seconds.
func sizeFor(seconds int, smoke bool) sizing {
	if smoke {
		return sizing{apps: paperApps()[:2], datasets: datasetNames()[:2],
			hits: 150, reads: 30, stored: 7, full: 1, sampled: 2, joins: 1}
	}
	// Per group at the committed run length of 8 s: 105 full, 105 joins
	// and 315 sampled in all, enough for every class's p90.
	per8 := func(n int) int { return max(1, n*seconds/8) }
	return sizing{apps: paperApps(), datasets: datasetNames(),
		hits: 1500 * seconds, reads: 250 * seconds, stored: 7,
		full: per8(3), sampled: per8(9), joins: per8(3)}
}

// specInfo is one job spec with what the schedule needs to send and check.
type specInfo struct {
	spec     jobs.Spec
	hash     string
	wait     []byte   // POST /jobs body, wait=true
	noWait   []byte   // POST /jobs body, wait=false
	replicas []string // owner first; traced cluster runs only
}

func newSpecInfo(s jobs.Spec) (*specInfo, error) {
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	hash, err := s.Hash()
	if err != nil {
		return nil, err
	}
	si := &specInfo{spec: s, hash: hash}
	if si.wait, err = json.Marshal(server.SubmitRequest{Spec: s, Wait: true}); err != nil {
		return nil, err
	}
	if si.noWait, err = json.Marshal(server.SubmitRequest{Spec: s}); err != nil {
		return nil, err
	}
	return si, nil
}

// Warm-up specs prepare each dataset's DBG workload at the cold scale,
// unweighted and (SSSP only) weighted. BFS is outside the paper's five, so
// only the weighted one has to be kept out of the never-seen specs.
const (
	warmApp         = "BFS"
	warmWeightedApp = "SSSP"
	warmPolicy      = "LRU"
)

// op is one schedule entry.
type op struct {
	class opClass
	spec  *specInfo
}

// schedule is the fixed request sequence of one run, a function of the
// seed and the sizing alone.
type schedule struct {
	stored []*specInfo
	ops    []op
	cold   []*specInfo // every never-seen spec in ops
}

// policyStride walks the seeded policy order from group to group; coprime
// with the policy count, so consecutive groups start on different policies
// and every policy is used about equally often.
const policyStride = 7

func newSchedule(seed int64, z sizing) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	policies := registeredPolicies()
	rng.Shuffle(len(policies), func(i, j int) { policies[i], policies[j] = policies[j], policies[i] })
	if z.full+z.joins+1 > len(policies) || z.sampled > len(policies) || z.stored > len(policies) {
		return nil, fmt.Errorf("-seconds asks for more never-seen specs per group than there are policies (%d)", len(policies))
	}
	// pick returns group g's next n specs, walking the policy order on
	// from *pos.
	pick := func(g int, app, ds string, scale uint32, sampled bool, pos *int, n int) ([]*specInfo, error) {
		var out []*specInfo
		for len(out) < n {
			pol := policies[(g*policyStride+*pos)%len(policies)]
			*pos++
			if scale == coldScale && !sampled && app == warmWeightedApp && pol == warmPolicy {
				continue // a warm-up spec: it would not be cold
			}
			s := jobs.Spec{Kind: jobs.KindSingle, Graph: ds, App: app, Policy: pol, Reorder: "DBG", Scale: scale}
			if sampled {
				s.Fidelity, s.SampleK = jobs.FidelitySampled, sampledK
			}
			si, err := newSpecInfo(s)
			if err != nil {
				return nil, err
			}
			out = append(out, si)
		}
		return out, nil
	}
	sc := &schedule{}
	g := 0
	for _, app := range z.apps {
		for _, ds := range z.datasets {
			var storedPos, fullPos, sampledPos int
			stored, err := pick(g, app, ds, storedScale, false, &storedPos, z.stored)
			if err != nil {
				return nil, err
			}
			sc.stored = append(sc.stored, stored...)
			for _, c := range []struct {
				class   opClass
				sampled bool
				pos     *int
				n       int
			}{{classColdFull, false, &fullPos, z.full}, {classJoin, false, &fullPos, z.joins}, {classColdSampled, true, &sampledPos, z.sampled}} {
				specs, err := pick(g, app, ds, coldScale, c.sampled, c.pos, c.n)
				if err != nil {
					return nil, err
				}
				for _, si := range specs {
					sc.cold = append(sc.cold, si)
					sc.ops = append(sc.ops, op{c.class, si})
				}
			}
			g++
		}
	}
	for i := 0; i < z.hits; i++ {
		sc.ops = append(sc.ops, op{classHit, sc.stored[rng.Intn(len(sc.stored))]})
	}
	for i := 0; i < z.reads; i++ {
		sc.ops = append(sc.ops, op{classRead, sc.stored[rng.Intn(len(sc.stored))]})
	}
	// Classes interleaved: hits run while cold jobs occupy the workers.
	rng.Shuffle(len(sc.ops), func(i, j int) { sc.ops[i], sc.ops[j] = sc.ops[j], sc.ops[i] })
	return sc, nil
}

// node is one graspd stack, wired as cmd/graspd's run() wires it.
type node struct {
	id  string
	url string
	mgr *jobs.Manager
	jn  *jobs.Journal
	api *server.Server
	srv *http.Server
}

// bootStack starts n stacks on real 127.0.0.1 listeners with graspd's
// defaults (journal on, 1024-deep queue, no rate limit; with n > 1 a
// static cluster: RF=2, 150 ms hedge, 1 s probe). The listeners are bound
// before any node starts so every node's peer list can name every address.
// wrap, when non-nil, interposes on each node's handler (traced runs).
func bootStack(dir string, n, workers int, wrap func(id string, h http.Handler) http.Handler) ([]*node, error) {
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String()}
	}
	var nodes []*node
	for i, ln := range lns {
		data := filepath.Join(dir, peers[i].ID)
		store, err := jobs.OpenStore(data)
		if err != nil {
			return nil, err
		}
		mgr := jobs.NewManager(store, workers)
		mgr.SetQueueLimit(1024)
		jn, pending, err := jobs.OpenJournal(data)
		if err != nil {
			return nil, err
		}
		mgr.UseJournal(jn, pending)
		opts := server.Options{Burst: 10, HedgeDelay: 150 * time.Millisecond}
		if n > 1 {
			cl, err := cluster.New(cluster.Config{Self: peers[i].ID, Peers: peers, ProbeInterval: time.Second})
			if err != nil {
				return nil, err
			}
			opts.Cluster = cl
		}
		api := server.NewWith(mgr, opts)
		var h http.Handler = api
		if wrap != nil {
			h = wrap(peers[i].ID, h)
		}
		nd := &node{id: peers[i].ID, url: peers[i].Addr, mgr: mgr, jn: jn, api: api, srv: &http.Server{Handler: h}}
		go nd.srv.Serve(ln) // returns http.ErrServerClosed at Shutdown
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// stopStack drains and stops every node and waits for each to end. The
// run's result is already decided by then, so a node that will not drain
// within the minute is abandoned, not reported.
func stopStack(nodes []*node) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, nd := range nodes {
		nd.api.DrainReplication()
	}
	for _, nd := range nodes {
		_ = nd.mgr.Shutdown(ctx)
		_ = nd.srv.Shutdown(ctx)
		if cl := nd.api.Cluster(); cl != nil {
			cl.Stop()
		}
		_ = nd.jn.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// reqRec is one HTTP round trip as the client saw it.
type reqRec struct {
	op    int // schedule index; opStore or opWarm during set-up
	class opClass
	leg   int // 0, or 1 for a join's wait=true leg
	get   bool
	spec  *specInfo
	start time.Time
	rtt   time.Duration
	sum   [sha256.Size]byte
	bad   string // non-empty: why this request failed
}

// Set-up requests carry no schedule index. A warm-up spec is executed once
// on every node on purpose, so its bodies differ in their timing fields.
const (
	opStore = -1
	opWarm  = -2
)

// servesOutcome reports whether the reply is an outcome body; a join's
// accepted leg answers with a status snapshot instead.
func (r *reqRec) servesOutcome() bool { return !(r.class == classJoin && r.leg == 0) }

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc     *http.Client
	base   string
	traced bool
	recs   []reqRec
	first  map[string][]byte // hash+kind -> first body seen
	jobID  map[int]string    // op -> job id of a join's accepted leg (traced)
}

func newClient(base string, traced bool) *client {
	return &client{base: base, traced: traced, first: make(map[string][]byte), jobID: make(map[int]string),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// forwardedHeader is the cluster's hop guard. Set-up uses it to make a
// warm-up spec execute on the node it is sent to.
const (
	forwardedHeader = "X-Graspd-Forwarded"
	resultSumHeader = "X-Graspd-Result-Sha256"
	opHeader        = "X-Bench-Op"
)

// do sends one request and records it. base overrides the client's node
// (set-up warm-ups and traced probes).
func (c *client) do(idx int, o op, leg int, method, base, path string, body []byte, hdr map[string]string) *reqRec {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	c.recs = append(c.recs, reqRec{op: idx, class: o.class, leg: leg, get: method == http.MethodGet, spec: o.spec})
	r := &c.recs[len(c.recs)-1]
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		r.bad = err.Error()
		return r
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced && idx >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(idx+1))
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	r.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.rtt, r.bad = time.Since(r.start), err.Error()
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.rtt = time.Since(r.start)
	switch {
	case err != nil:
		r.bad = err.Error()
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		r.bad = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	default:
		r.sum = sha256.Sum256(data)
		if want := resp.Header.Get(resultSumHeader); want != "" && want != hex.EncodeToString(r.sum[:]) {
			r.bad = "body does not match its " + resultSumHeader
		}
		if r.servesOutcome() {
			key := o.spec.hash + method
			if _, ok := c.first[key]; !ok {
				c.first[key] = data
			}
		}
		if c.traced && o.class == classJoin && leg == 0 {
			var sr server.SubmitResponse
			if json.Unmarshal(data, &sr) == nil {
				c.jobID[idx] = sr.ID
			}
		}
	}
	return r
}

// run executes one operation.
func (c *client) run(idx int, o op) {
	switch o.class {
	case classRead:
		c.do(idx, o, 0, http.MethodGet, c.base, "/results/"+o.spec.hash, nil, nil)
	case classJoin:
		c.do(idx, o, 0, http.MethodPost, c.base, "/jobs", o.spec.noWait, nil)
		c.do(idx, o, 1, http.MethodPost, c.base, "/jobs", o.spec.wait, nil)
	default:
		c.do(idx, o, 0, http.MethodPost, c.base, "/jobs", o.spec.wait, nil)
	}
}

// inParallel runs fn(i) for every i in [0, n) over the clients, client k
// taking every serveClients-th index, and waits for all of them.
func inParallel(clients []*client, n int, fn func(c *client, i int)) {
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n; i += len(clients) {
				fn(c, i)
			}
		}()
	}
	wg.Wait()
}

// runServe is the protocol of both serve workloads: boot, pre-store and
// warm (set-up), then the seeded schedule split over two closed-loop
// clients attached to node n0 (timed), then the checks.
func runServe(e *env, nNodes, workers int) (*outcome, error) {
	o := &outcome{m: metrics{}}
	z := sizeFor(e.seconds, e.smoke)
	sc, err := newSchedule(e.seed, z)
	if err != nil {
		return nil, err
	}
	var tr *serveTrace
	var wrap func(string, http.Handler) http.Handler
	if e.trace {
		tr = newServeTrace(e.spans)
		wrap = tr.wrap
	}
	nodes, err := bootStack(e.scratch, nNodes, workers, wrap)
	if err != nil {
		return nil, err
	}
	defer stopStack(nodes)
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(nodes[0].url, e.trace)
	}

	// Set-up: store the outcomes hits and reads will find, then prepare
	// every dataset's workload at the cold scale on every node, so that a
	// cold request pays for simulation, not for graph generation.
	inParallel(clients, len(sc.stored), func(c *client, i int) {
		c.do(opStore, op{classHit, sc.stored[i]}, 0, http.MethodPost, c.base, "/jobs", sc.stored[i].wait, nil)
	})
	var warm []op
	for _, ds := range z.datasets {
		for _, app := range []string{warmApp, warmWeightedApp} {
			si, err := newSpecInfo(jobs.Spec{Kind: jobs.KindSingle, Graph: ds, App: app, Policy: warmPolicy, Reorder: "DBG", Scale: coldScale})
			if err != nil {
				return nil, err
			}
			warm = append(warm, op{classColdFull, si})
		}
	}
	for _, nd := range nodes {
		var hdr map[string]string
		if nNodes > 1 {
			hdr = map[string]string{forwardedHeader: "bench"} // execute here, whoever owns the hash
		}
		inParallel(clients, len(warm), func(c *client, i int) {
			c.do(opWarm, warm[i], 0, http.MethodPost, nd.url, "/jobs", warm[i].spec.wait, hdr)
		})
	}
	for _, nd := range nodes {
		nd.api.DrainReplication()
	}
	if tr != nil {
		if err := tr.afterSetup(nodes, sc); err != nil {
			return nil, err
		}
	}
	before, err := scrapeAll(nodes)
	if err != nil {
		return nil, err
	}
	o.m.set("setup_s", time.Since(e.started).Seconds(), 1)

	cpu0, t0 := cpuSeconds(), time.Now()
	inParallel(clients, len(sc.ops), func(c *client, i int) {
		c.run(i, sc.ops[i])
		if tr != nil {
			tr.afterOp(c, nodes, i, sc.ops[i])
		}
	})
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	o.m.set("wall_s", wall, 1)
	o.m.set("cpu_s", cpu, 1)
	o.m.set("req_per_s", float64(len(sc.ops))/wall, len(sc.ops))

	for _, nd := range nodes {
		nd.api.DrainReplication()
	}
	after, err := scrapeAll(nodes)
	if err != nil {
		return nil, err
	}
	delta := after.minus(before)

	var recs []reqRec
	for _, c := range clients {
		recs = append(recs, c.recs...)
	}
	checkResponses(o, recs, clients)
	if err := checkAgainstLocal(o, e.seed, sc, clients); err != nil {
		return nil, err
	}
	checkCounters(o, delta, sc, z)
	classLatencies(o.m, recs)
	delta.report(o.m, len(sc.cold))
	if tr != nil {
		if err := tr.report(o, e, nodes, sc, recs, clients); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// classLatencies reports what a caller sees per request class. A join's
// two legs are not a class latency; its accepted leg is
// server.accept_ms_p50 in the traced run.
func classLatencies(m metrics, recs []reqRec) {
	var ms [numClasses][]float64
	for _, r := range recs {
		if r.op >= 0 && r.class != classJoin {
			ms[r.class] = append(ms[r.class], float64(r.rtt)/1e6)
		}
	}
	m.setDist("hit_ms_p50", ms[classHit], 50)
	m.setDist("hit_ms_p99", ms[classHit], 99)
	m.setDist("read_ms_p50", ms[classRead], 50)
	m.setDist("cold_full_ms_p50", ms[classColdFull], 50)
	m.setDist("cold_full_ms_p90", ms[classColdFull], 90)
	m.setDist("cold_sampled_ms_p50", ms[classColdSampled], 50)
	m.setDist("cold_sampled_ms_p90", ms[classColdSampled], 90)
}

// checkResponses counts every request as an operation and fails the ones
// that errored, were not 2xx, broke their checksum header, or whose body
// differs from the first body seen for that hash on that endpoint. The
// first bodies must decode to the requested hash and agree across
// endpoints and clients.
func checkResponses(o *outcome, recs []reqRec, clients []*client) {
	firstSum := make(map[string][sha256.Size]byte)
	for _, r := range recs {
		o.attempted++
		if r.bad != "" {
			o.fail("%s %s: %s", classNames[r.class], r.spec.hash[:12], r.bad)
			continue
		}
		if !r.servesOutcome() || r.op == opWarm {
			continue
		}
		key := r.spec.hash + strconv.FormatBool(r.get)
		if want, ok := firstSum[key]; !ok {
			firstSum[key] = r.sum
		} else if want != r.sum {
			o.fail("%s %s: body differs from the first one served for this hash", classNames[r.class], r.spec.hash[:12])
		}
	}
	canonical := make(map[string][]byte) // hash -> the outcome re-marshaled
	for _, c := range clients {
		for key, body := range c.first {
			hash := key[:sha256.Size*2]
			var out jobs.Outcome
			again, err := []byte(nil), json.Unmarshal(body, &out)
			if err == nil {
				again, err = json.Marshal(out)
			}
			if err != nil || out.Hash != hash {
				o.attempted++
				o.fail("%s: body does not decode to an outcome of the requested hash", hash[:12])
				continue
			}
			if want, ok := canonical[hash]; !ok {
				canonical[hash] = again
			} else if !bytes.Equal(want, again) {
				o.attempted++
				o.fail("%s: POST and GET (or two clients) were served different outcomes", hash[:12])
			}
		}
	}
}

// checkAgainstLocal re-runs ten seed-chosen cold specs on a local
// exp.Session and requires the served outcome to equal it field for field
// (bar the recording run's wall-clock).
func checkAgainstLocal(o *outcome, seed int64, sc *schedule, clients []*client) error {
	rng := rand.New(rand.NewSource(seed))
	s := exp.NewSession(exp.ScaledConfig(coldScale))
	ctx := context.Background()
	for _, i := range rng.Perm(len(sc.cold))[:min(10, len(sc.cold))] {
		si := sc.cold[i]
		var body []byte
		for _, c := range clients {
			if b, ok := c.first[si.hash+http.MethodPost]; ok {
				body = b
			}
		}
		o.attempted++
		var got jobs.Outcome
		if err := json.Unmarshal(body, &got); err != nil {
			o.fail("%s: no decodable outcome to compare with a local run", si.hash[:12])
			continue
		}
		sp := si.spec
		switch {
		case sp.Fidelity == jobs.FidelitySampled:
			want, err := s.SampledResultCtx(ctx, sp.Graph, sp.Reorder, sp.App, layoutMerged, sp.Policy, sp.SampleK)
			if err != nil {
				return err
			}
			if got.Sampled == nil {
				o.fail("%s: sampled spec served without a sampled result", si.hash[:12])
				continue
			}
			want.AppTime, got.Sampled.AppTime = 0, 0
			if want != *got.Sampled {
				o.fail("%s: served estimate differs from a local exp.Session run", si.hash[:12])
			}
		default:
			want, err := s.ResultCtx(ctx, sp.Graph, sp.Reorder, sp.App, layoutMerged, sp.Policy)
			if err != nil {
				return err
			}
			if got.Single == nil {
				o.fail("%s: full spec served without a result", si.hash[:12])
				continue
			}
			want.AppTime, got.Single.AppTime = 0, 0
			if want != *got.Single {
				o.fail("%s: served result differs from a local exp.Session run", si.hash[:12])
			}
		}
	}
	return nil
}

// counters is the documented /metrics counters the benchmark reads, summed
// over the nodes.
type counters map[string]float64

// scrapeAll reads GET /metrics on every node.
func scrapeAll(nodes []*node) (counters, error) {
	sum := counters{}
	for _, nd := range nodes {
		resp, err := http.Get(nd.url + "/metrics")
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				sum[strings.TrimPrefix(name, "graspd_")] += v
			}
		}
	}
	return sum, nil
}

func (c counters) minus(b counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - b[k]
	}
	return out
}

// report emits the timed phase's counter deltas.
func (c counters) report(m metrics, uniqueCold int) {
	m.set("jobs.executed", c["jobs_executed_total"], 1)
	m.set("jobs.store_hits", c["result_store_hits_total"], 1)
	m.set("jobs.dedup_hits", c["inflight_dedup_hits_total"], 1)
	m.set("jobs.failed", c["jobs_failed_total"], 1)
	m.set("jobs.shed", c["jobs_shed_total"], 1)
	m.set("jobs.exec_per_unique", c["jobs_executed_total"]/float64(uniqueCold), uniqueCold)
	m.set("cluster.forwarded", c["cluster_forwarded_total"], 1)
	m.set("cluster.failovers", c["cluster_failovers_total"], 1)
	m.set("cluster.fetches", c["cluster_result_fetches_total"], 1)
	m.set("cluster.hedged_reads", c["cluster_hedged_reads_total"], 1)
	m.set("cluster.cache_fills", c["cluster_cache_fills_total"], 1)
}

// checkCounters reconciles the /metrics deltas of the timed phase with the
// schedule: every never-seen spec executed exactly once, nothing failed or
// was shed, and every hit and every join's second leg was answered from
// the store or by joining the job in flight.
func checkCounters(o *outcome, d counters, sc *schedule, z sizing) {
	o.attempted += 3
	if got := int(d["jobs_executed_total"]); got != len(sc.cold) {
		o.fail("/metrics: %d jobs executed for %d never-seen specs", got, len(sc.cold))
	}
	if f, s := d["jobs_failed_total"], d["jobs_shed_total"]; f != 0 || s != 0 {
		o.fail("/metrics: %g jobs failed, %g shed", f, s)
	}
	if got, want := int(d["result_store_hits_total"]+d["inflight_dedup_hits_total"]), z.hits+z.joins*z.groups(); got != want {
		o.fail("/metrics: %d submissions answered without executing, want %d (hits + joins)", got, want)
	}
}
