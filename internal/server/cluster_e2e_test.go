package server

// Three-node cluster harness: every node is a full graspd stack (store →
// manager → HTTP server) on its own httptest listener, wired into one
// static ring. The listeners are allocated BEFORE any server starts so
// each node's -peers view can name every address up front, exactly like a
// deployment's static config. These tests run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/fail"
	"grasp/internal/graph"
	"grasp/internal/jobs"
	"grasp/internal/sim"
)

type clusterNode struct {
	id  string
	ts  *httptest.Server
	srv *Server
	mgr *jobs.Manager
	cli *Client
}

type testCluster struct {
	nodes []*clusterNode
}

// bootCluster starts an n-node cluster with fast probes and a short
// hedge delay.
func bootCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return bootClusterWith(t, n, 20*time.Millisecond, nil)
}

// bootClusterWith is bootCluster probing every probeEvery, with wrap, when
// non-nil, interposed on every node's handler — how a test observes
// node-to-node requests.
func bootClusterWith(t *testing.T, n int, probeEvery time.Duration, wrap func(id string, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	tss := make([]*httptest.Server, n)
	peers := make([]cluster.Peer, n)
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		peers[i] = cluster.Peer{
			ID:   fmt.Sprintf("n%d", i),
			Addr: "http://" + tss[i].Listener.Addr().String(),
		}
	}
	tc := &testCluster{}
	for i := range tss {
		store, err := jobs.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		mgr := jobs.NewManager(store, 1)
		cl, err := cluster.New(cluster.Config{
			Self:          peers[i].ID,
			Peers:         peers,
			ProbeInterval: probeEvery,
			ProbeTimeout:  time.Second,
			DownAfter:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewWith(mgr, Options{Cluster: cl, HedgeDelay: 25 * time.Millisecond})
		tss[i].Config.Handler = srv
		if wrap != nil {
			tss[i].Config.Handler = wrap(peers[i].ID, srv)
		}
		tss[i].Start()
		tc.nodes = append(tc.nodes, &clusterNode{
			id: peers[i].ID, ts: tss[i], srv: srv, mgr: mgr, cli: NewClient(tss[i].URL),
		})
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			nd.srv.DrainReplication()
			nd.srv.Cluster().Stop()
			nd.ts.Close() // idempotent: tests that killed a node already closed it
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			nd.mgr.Shutdown(ctx)
			cancel()
		}
	})
	return tc
}

// node returns the member with the given ID.
func (tc *testCluster) node(id string) *clusterNode {
	for _, nd := range tc.nodes {
		if nd.id == id {
			return nd
		}
	}
	return nil
}

// specOwnedBy mints a cheap single-graph spec whose hash is owned by
// wantOwner and — when avoid is set — whose replica holder set excludes
// avoid, by scanning scale divisors (scale is part of the content
// address, so each divisor is a fresh hash).
func (tc *testCluster) specOwnedBy(t *testing.T, wantOwner, avoid string) (jobs.Spec, string) {
	t.Helper()
	cl := tc.nodes[0].srv.Cluster()
	for scale := uint32(200); scale < 10000; scale++ {
		spec := jobs.Spec{Kind: jobs.KindSingle, Graph: "uni", Scale: scale}
		if err := spec.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		owners := cl.Owners(hash)
		if owners[0].ID != wantOwner {
			continue
		}
		excluded := true
		for _, p := range owners {
			if p.ID == avoid {
				excluded = false
			}
		}
		if avoid != "" && !excluded {
			continue
		}
		return spec, hash
	}
	t.Fatal("no spec found with the requested ownership")
	return jobs.Spec{}, ""
}

// TestClusterForwardsToOwnerAndReplicates: a submission through a
// non-owning node executes on the hash's owner, and the completed result
// replicates to the successor — the ingress node, which holds no replica,
// stores nothing. The ingress node's /metrics counts the forward and
// reports every member up.
func TestClusterForwardsToOwnerAndReplicates(t *testing.T) {
	tc := bootCluster(t, 3)
	ingress := tc.nodes[0]
	spec, hash := tc.specOwnedBy(t, "n1", ingress.id)
	owner, successor := tc.node("n1"), tc.node("n2")

	out, err := ingress.cli.RunSync(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hash != hash {
		t.Fatalf("outcome hash %s, want %s", out.Hash, hash)
	}
	if got := owner.mgr.Metrics().Executed; got != 1 {
		t.Errorf("owner executed %d jobs, want 1", got)
	}
	if got := ingress.mgr.Metrics().Executed; got != 0 {
		t.Errorf("ingress executed %d jobs, want 0 (it must forward)", got)
	}
	if got := ingress.srv.forwarded.Load(); got != 1 {
		t.Errorf("ingress forwarded counter = %d, want 1", got)
	}

	owner.srv.DrainReplication()
	ownData, ownSum, ok := owner.mgr.Store().GetRaw(hash)
	if !ok {
		t.Fatal("owner did not persist the outcome")
	}
	repData, repSum, ok := successor.mgr.Store().GetRaw(hash)
	if !ok {
		t.Fatal("successor holds no replica")
	}
	if repSum != ownSum || string(repData) != string(ownData) {
		t.Error("replica bytes differ from the owner's")
	}
	if _, _, ok := ingress.mgr.Store().GetRaw(hash); ok {
		t.Error("non-holder ingress node stored a copy")
	}

	resp, err := http.Get(ingress.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if m := regexp.MustCompile(`(?m)^graspd_cluster_forwarded_total ([1-9][0-9]*)$`).Find(body); m == nil {
		t.Errorf("ingress /metrics counts no forward:\n%s", body)
	}
	for _, nd := range tc.nodes {
		lines := regexp.MustCompile(fmt.Sprintf(`(?m)^graspd_cluster_peer_up\{peer=%q\} (.*)$`, nd.id)).FindAllSubmatch(body, -1)
		if len(lines) != 1 || string(lines[0][1]) != "1" {
			t.Errorf("ingress /metrics: peer_up lines for %s %q, want one reading 1:\n%s", nd.id, lines, body)
		}
	}
}

// TestClusterOwnerDownFailover: with the owning node dead (listener
// closed — the SIGKILL shape), a submission through a survivor fails over
// to the successor and completes there.
func TestClusterOwnerDownFailover(t *testing.T) {
	tc := bootCluster(t, 3)
	ingress := tc.nodes[0]
	// Owner n2, holders {n2, n1}: ingress n0 is not in the replica set, so
	// the failover target is deterministically n1.
	spec, hash := tc.specOwnedBy(t, "n2", ingress.id)
	tc.node("n2").ts.Close()

	out, err := ingress.cli.RunSync(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hash != hash {
		t.Fatalf("outcome hash %s, want %s", out.Hash, hash)
	}
	if got := tc.node("n1").mgr.Metrics().Executed; got != 1 {
		t.Errorf("successor executed %d jobs, want 1", got)
	}
	if got := ingress.srv.failovers.Load(); got == 0 {
		t.Error("ingress recorded no failover past the dead owner")
	}
}

// TestClusterPartitionDedupAndHeal: with the owner partitioned by
// failpoints, two different nodes' submissions of the same spec both fail
// over to the successor and JOIN — one execution cluster-wide. After the
// partition heals, the completed result replicates back to the owner.
func TestClusterPartitionDedupAndHeal(t *testing.T) {
	defer fail.Reset()
	tc := bootCluster(t, 3)
	// A seconds-long experiment job, so the second submission arrives while
	// the first is still executing.
	spec := jobs.Spec{Kind: jobs.KindExperiment, Exp: "fig9", Scale: 64}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	cl := tc.nodes[0].srv.Cluster()
	owners := cl.Owners(hash)
	owner := tc.node(owners[0].ID)
	successor := tc.node(owners[1].ID)
	var others []*clusterNode
	for _, nd := range tc.nodes {
		if nd.id != owner.id {
			others = append(others, nd)
		}
	}

	// Partition the owner: its forwards fail and every node's prober marks
	// it down (failpoints are process-wide, which in this one-process
	// harness IS the symmetric partition).
	fail.Arm("cluster.forward."+owner.id, nil)
	fail.Arm("cluster.probe."+owner.id, nil)

	first, err := others[0].cli.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := others[1].cli.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Disposition != jobs.Deduped && second.Disposition != jobs.Cached {
		t.Errorf("second submission disposition = %v, want deduped (or cached if the race lost)", second.Disposition)
	}
	if second.Disposition == jobs.Deduped && second.ID != first.ID {
		t.Errorf("deduped submission joined job %s, first was %s", second.ID, first.ID)
	}
	if got := owner.mgr.Metrics().Submitted; got != 0 {
		t.Errorf("partitioned owner saw %d submissions, want 0", got)
	}

	// The job landed on the successor; wait for it there.
	st, err := successor.cli.WaitJob(first.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if got := successor.mgr.Metrics().Executed; got != 1 {
		t.Errorf("successor executed %d jobs, want exactly 1 (dedup must join)", got)
	}

	// Heal. Replication targets ring placement, so the owner receives its
	// copy on the completion-time notify.
	fail.Reset()
	successor.srv.DrainReplication()
	if _, _, ok := owner.mgr.Store().GetRaw(hash); !ok {
		t.Error("healed owner holds no replica of the result produced during the partition")
	}
}

// TestClusterHopGuard: a request already carrying the forwarded header is
// NEVER forwarded again, even by a node that does not own its hash — the
// property that makes routing loop-free under ring disagreement.
func TestClusterHopGuard(t *testing.T) {
	tc := bootCluster(t, 3)
	nonOwner := tc.nodes[0]
	spec, _ := tc.specOwnedBy(t, "n1", "")

	body, err := json.Marshal(SubmitRequest{Spec: spec, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, nonOwner.ts.URL+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Graspd-Forwarded", "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded submit answered %s", resp.Status)
	}
	io.Copy(io.Discard, resp.Body)
	if got := nonOwner.mgr.Metrics().Executed; got != 1 {
		t.Errorf("guarded node executed %d jobs, want 1 (locally, no second hop)", got)
	}
	if got := tc.node("n1").mgr.Metrics().Executed; got != 0 {
		t.Errorf("owner executed %d jobs, want 0 (the hop guard must stop re-forwarding)", got)
	}
	if got := nonOwner.srv.forwarded.Load(); got != 0 {
		t.Errorf("guarded node forwarded %d requests, want 0", got)
	}
}

// TestClusterReplicaServesVerifiedRead: with the owner dead, a
// non-holding node's GET /results federates the outcome from the replica
// and serves it with a checksum header that matches the body.
func TestClusterReplicaServesVerifiedRead(t *testing.T) {
	tc := bootCluster(t, 3)
	reader := tc.nodes[0]
	spec, hash := tc.specOwnedBy(t, "n1", reader.id) // holders {n1, n2}
	owner, replica := tc.node("n1"), tc.node("n2")

	if _, err := owner.cli.RunSync(spec, 0); err != nil {
		t.Fatal(err)
	}
	owner.srv.DrainReplication()
	if _, _, ok := replica.mgr.Store().GetRaw(hash); !ok {
		t.Fatal("replica holds no copy before the owner dies")
	}
	owner.ts.Close()

	resp, err := http.Get(reader.ts.URL + "/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("federated read answered %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := resp.Header.Get("X-Graspd-Result-Sha256")
	if want == "" {
		t.Fatal("federated response carries no checksum header")
	}
	if got := sha256Hex(data); got != want {
		t.Fatalf("body hashes to %s, header says %s", got, want)
	}
	var o jobs.Outcome
	if err := json.Unmarshal(data, &o); err != nil || o.Hash != hash {
		t.Fatalf("federated body is not the outcome for %s: %v", hash, err)
	}
	// The reader is not in the hash's holder set: federation must serve
	// without planting an off-placement copy.
	if _, _, ok := reader.mgr.Store().GetRaw(hash); ok {
		t.Error("non-holder cache-filled a federated result")
	}
}

// TestClusterFederatedMissKeepsHoldersUp: a holder that answers a
// federated read with 404 — it holds no copy — has answered, so the miss
// does not count against it, nor as a failed fetch. With no probe to heal
// a wrong verdict, three unknown-hash reads through a non-holder leave
// every peer up and the fetch-error counter at 0, and a submission the
// holder owns is still forwarded to it, not failed over. An injected
// cluster.fetch fault on a held hash's read still counts as an error.
func TestClusterFederatedMissKeepsHoldersUp(t *testing.T) {
	defer fail.Reset()
	tc := bootClusterWith(t, 3, time.Hour, nil)
	reader := tc.nodes[0]
	spec, held := tc.specOwnedBy(t, "n1", reader.id) // holders {n1, n2}
	cl := reader.srv.Cluster()
	var unknown string
	for i := 0; unknown == ""; i++ {
		h := sha256Hex([]byte(fmt.Sprint("unknown ", i)))
		if owners := cl.Owners(h); owners[0].ID != reader.id && owners[1].ID != reader.id {
			unknown = h
		}
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(reader.ts.URL + "/results/" + unknown)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("read %d of an unknown hash answered %s, want 404", i+1, resp.Status)
		}
		for _, st := range cl.Snapshot() {
			if st.State != cluster.StateUp {
				t.Fatalf("after %d federated misses %s reads %s, want up", i+1, st.ID, st.State)
			}
		}
	}
	if got := reader.srv.fetchErrors.Load(); got != 0 {
		t.Errorf("3 federated misses counted %d fetch errors, want 0", got)
	}

	failovers := reader.srv.failovers.Load()
	if _, err := reader.cli.RunSync(spec, 0); err != nil {
		t.Fatal(err)
	}
	if got := reader.srv.forwarded.Load(); got != 1 {
		t.Errorf("reader forwarded %d submissions, want 1", got)
	}
	if got := reader.srv.failovers.Load(); got != failovers {
		t.Errorf("failovers went %d → %d, want unchanged", failovers, got)
	}
	if got := tc.node("n1").mgr.Metrics().Executed; got != 1 {
		t.Errorf("the holder executed %d jobs, want 1", got)
	}

	fail.Arm("cluster.fetch", nil)
	resp, err := http.Get(reader.ts.URL + "/results/" + held)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := reader.srv.fetchErrors.Load(); got < 1 {
		t.Errorf("a faulted fetch of a held hash (answered %s) counted %d fetch errors, want >= 1", resp.Status, got)
	}
}

// TestClusterHedgedLoserNotAFetchError: a federated read whose first
// holder answers only after the hedge delay is won by the hedge; the
// winner's return cancels the slow fetch and waits for it, and that
// reeled-in loser counts as no fetch error — one fetch, one hedge, zero
// errors, all counted by the time the response arrives.
func TestClusterHedgedLoserNotAFetchError(t *testing.T) {
	var slow atomic.Bool
	loserDone := make(chan struct{})
	tc := bootClusterWith(t, 3, 20*time.Millisecond, func(id string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if id == "n1" && slow.Load() && strings.HasPrefix(r.URL.Path, "/internal/results/") {
				defer close(loserDone)
				select {
				case <-r.Context().Done(): // the reader reeled this fetch in
					return
				case <-time.After(5 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	reader := tc.nodes[0]
	spec, hash := tc.specOwnedBy(t, "n1", reader.id) // holders {n1, n2}
	owner := tc.node("n1")
	if _, err := owner.cli.RunSync(spec, 0); err != nil {
		t.Fatal(err)
	}
	owner.srv.DrainReplication()
	if _, _, ok := tc.node("n2").mgr.Store().GetRaw(hash); !ok {
		t.Fatal("replica holds no copy")
	}
	slow.Store(true)

	resp, err := http.Get(reader.ts.URL + "/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged read answered %s, want 200", resp.Status)
	}
	// The read returns only once its losing fetch has, so the counters
	// are final now.
	srv := reader.srv
	if f, h, e := srv.fetches.Load(), srv.hedged.Load(), srv.fetchErrors.Load(); f != 1 || h != 1 || e != 0 {
		t.Errorf("fetches %d, hedged %d, fetch errors %d; want 1, 1, 0", f, h, e)
	}
	select {
	case <-loserDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow holder was never asked, or never released")
	}
}

// TestClusterNonHashReadNotFederated: GET /results/{key} with a key that
// is no spec hash answers 404 without asking any peer.
func TestClusterNonHashReadNotFederated(t *testing.T) {
	var internal atomic.Int64
	tc := bootClusterWith(t, 3, 20*time.Millisecond, func(id string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/internal/results/") {
				internal.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	for _, key := range []string{"not-a-hash", strings.Repeat("A", 64), strings.Repeat("0", 63)} {
		resp, err := http.Get(tc.nodes[0].ts.URL + "/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /results/%s answered %s, want 404", key, resp.Status)
		}
	}
	if n := internal.Load(); n != 0 {
		t.Errorf("%d /internal/results/ requests reached a peer, want 0", n)
	}
}

// TestClusterCacheFillRepairsReplica: a holder that missed the original
// replication (notify failpointed) repairs itself on its first federated
// read — pull, verify, persist.
func TestClusterCacheFillRepairsReplica(t *testing.T) {
	defer fail.Reset()
	tc := bootCluster(t, 3)
	spec, hash := tc.specOwnedBy(t, "n1", "n0") // holders {n1, n2}
	owner, replica := tc.node("n1"), tc.node("n2")

	fail.Arm("cluster.replicate", nil)
	if _, err := owner.cli.RunSync(spec, 0); err != nil {
		t.Fatal(err)
	}
	owner.srv.DrainReplication()
	if _, _, ok := replica.mgr.Store().GetRaw(hash); ok {
		t.Fatal("replication happened despite the armed failpoint")
	}
	if got := owner.srv.replErrors.Load(); got == 0 {
		t.Error("owner recorded no replication errors")
	}
	fail.Reset()

	if _, err := replica.cli.Result(hash); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := replica.mgr.Store().GetRaw(hash); !ok {
		t.Error("holder did not cache-fill the federated result")
	}
	if got := replica.srv.cacheFills.Load(); got != 1 {
		t.Errorf("cache fills = %d, want 1", got)
	}
}

// TestClusterReplicateRefusesForeignSource: a replicate notification
// whose source is not a configured peer — here a server outside the ring
// serving a well-formed, correctly summed forgery — is refused before
// anything is fetched, so the store never holds the forged outcome. So is
// one naming the receiving node itself.
func TestClusterReplicateRefusesForeignSource(t *testing.T) {
	tc := bootCluster(t, 2)
	victim := tc.nodes[0]
	_, hash := tc.specOwnedBy(t, "n1", "")
	forged, err := json.Marshal(jobs.Outcome{Hash: hash, Output: "FORGED"})
	if err != nil {
		t.Fatal(err)
	}
	var fetched atomic.Int64
	rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetched.Add(1)
		writeRawResult(w, forged, sha256Hex(forged))
	}))
	defer rogue.Close()

	for _, source := range []string{rogue.URL, victim.ts.URL} {
		body, err := json.Marshal(replicateRequest{Hash: hash, Source: source, Sum: sha256Hex(forged)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(victim.ts.URL+"/internal/replicate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("source %s: replicate answered %s, want a 4xx refusal", source, resp.Status)
		}
	}
	if n := fetched.Load(); n != 0 {
		t.Errorf("the foreign source was fetched %d times, want 0", n)
	}
	if o := victim.mgr.Store().Get(hash); o != nil {
		t.Fatalf("the store holds an outcome the ring never produced: %+v", o)
	}
}

// TestClusterStatusEndpoint: /cluster names every member, and ?hash=
// reports the routing verdict the smoke test kills by.
func TestClusterStatusEndpoint(t *testing.T) {
	tc := bootCluster(t, 3)
	_, hash := tc.specOwnedBy(t, "n2", "")
	resp, err := http.Get(tc.nodes[0].ts.URL + "/cluster?hash=" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Self     string           `json:"self"`
		Members  []cluster.Status `json:"members"`
		Owner    string           `json:"owner"`
		Replicas []string         `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Self != "n0" || len(body.Members) != 3 {
		t.Errorf("self=%s members=%d, want n0 with 3 members", body.Self, len(body.Members))
	}
	if body.Owner != "n2" || len(body.Replicas) != 2 {
		t.Errorf("owner=%s replicas=%v, want n2 with 2 replicas", body.Owner, body.Replicas)
	}
}

// sims is how many datapoints a node's own sessions have simulated, full
// or sampled — non-zero only where a simulation actually ran.
func sims(nd *clusterNode) uint64 {
	m := nd.mgr.Metrics()
	return m.Work.Full.Cells + m.Work.Sampled.Cells
}

// placedSpec varies base's policy until the spec's hash is owned by one
// node and its workload by another, so running it on the owner places the
// simulation on simNode.
func (tc *testCluster) placedSpec(t *testing.T, base jobs.Spec) (spec jobs.Spec, hash string, owner, simNode *clusterNode) {
	t.Helper()
	cl := tc.nodes[0].srv.Cluster()
	for _, p := range sim.Policies() {
		spec = base
		spec.Policy = p.Name
		if err := spec.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		key, err := spec.PlacementKey()
		if err != nil {
			t.Fatal(err)
		}
		if o, w := cl.Owners(hash)[0].ID, cl.Owners(key)[0].ID; o != w {
			return spec, hash, tc.node(o), tc.node(w)
		}
	}
	t.Fatal("every policy's hash is owned by the workload's owner")
	return
}

// holders counts the nodes holding a stored copy of hash.
func (tc *testCluster) holders(hash string) (n int) {
	for _, nd := range tc.nodes {
		nd.srv.DrainReplication()
	}
	for _, nd := range tc.nodes {
		if _, _, ok := nd.mgr.Store().GetRaw(hash); ok {
			n++
		}
	}
	return n
}

// comparableOutcome renders an outcome without the fields that differ from
// run to run (Elapsed, Finished, the recording's AppTime).
func comparableOutcome(t *testing.T, o *jobs.Outcome) string {
	t.Helper()
	c := *o
	c.Elapsed, c.Finished = 0, time.Time{}
	if c.Single != nil {
		r := *c.Single
		r.AppTime = 0
		c.Single = &r
	}
	if c.Sampled != nil {
		r := *c.Sampled
		r.AppTime = 0
		c.Sampled = &r
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postExecute sends one raw POST /internal/execute.
func postExecute(t *testing.T, nd *clusterNode, spec jobs.Spec, hash string) *http.Response {
	t.Helper()
	body, err := json.Marshal(executeRequest{Spec: spec, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nd.ts.URL+"/internal/execute", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// tinyWorkload is a spec of the smallest workload the harness simulates.
var tinyWorkload = jobs.Spec{Kind: jobs.KindSingle, Graph: "uni", Scale: 256}

// TestClusterPlacement is the placement table (DESIGN.md Sec. 16): a cold
// single job stays on the owner of its hash and its simulation runs on the
// owner of its workload — once per workload, with a local fallback that
// content addressing makes safe, and with every guard a local run has.
func TestClusterPlacement(t *testing.T) {
	t.Run("once per workload", func(t *testing.T) {
		tc := bootCluster(t, 3)
		cl := tc.nodes[0].srv.Cluster()
		var specs []jobs.Spec
		for _, app := range []string{"PR", "BFS"} {
			for _, fidelity := range []string{jobs.FidelityFull, jobs.FidelitySampled} {
				for _, policy := range []string{"GRASP", "LRU"} {
					s := tinyWorkload
					s.App, s.Fidelity, s.Policy = app, fidelity, policy
					specs = append(specs, s)
				}
			}
		}
		refStore, err := jobs.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ref := jobs.NewManager(refStore, 1) // a single node: nothing placed
		defer ref.Shutdown(context.Background())

		// All at once, through all three nodes: one placed-run slot per node,
		// so simulations queue on the workload's owner.
		outs := make([]*jobs.Outcome, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], errs[i] = tc.nodes[i%3].cli.RunSync(spec, 0)
			}()
		}
		wg.Wait()
		for _, nd := range tc.nodes {
			nd.srv.DrainReplication()
		}
		var key string
		for i, spec := range specs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			got := outs[i]
			j, _, err := ref.Submit(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if j.Outcome() == nil {
				t.Fatalf("reference run failed: %s", j.Status().Error)
			}
			if g, w := comparableOutcome(t, got), comparableOutcome(t, j.Outcome()); g != w {
				t.Errorf("%s/%s/%s: cluster served %s\nsingle node  %s", spec.App, spec.Fidelity, spec.Policy, g, w)
			}
			for _, p := range cl.Owners(got.Hash) {
				if _, _, ok := tc.node(p.ID).mgr.Store().GetRaw(got.Hash); !ok {
					t.Errorf("%s holds no copy of %s, a hash it owns", p.ID, got.Hash[:12])
				}
			}
			if key, err = got.Spec.PlacementKey(); err != nil {
				t.Fatal(err)
			}
		}
		home := cl.Owners(key)[0].ID
		var executed, placed, served uint64
		for _, nd := range tc.nodes {
			m := nd.mgr.Metrics()
			if simulated := sims(nd) > 0; simulated != (nd.id == home) || simulated != (m.CacheBytesRetained > 0) {
				t.Errorf("%s: %d simulations, %d cache bytes retained; the workload lives on %s",
					nd.id, sims(nd), m.CacheBytesRetained, home)
			}
			executed += m.Executed
			placed += nd.srv.placed.Load()
			served += nd.srv.placedServed.Load()
			if got := nd.srv.placeFallbacks.Load(); got != 0 {
				t.Errorf("%s fell back %d times on a healthy cluster", nd.id, got)
			}
		}
		if executed != uint64(len(specs)) {
			t.Errorf("%d jobs executed cluster-wide for %d specs", executed, len(specs))
		}
		if placed != served || placed == 0 {
			t.Errorf("%d simulations handed over, %d served, want equal and non-zero", placed, served)
		}

		// A weighted application reads another workload of the same graph,
		// which may live elsewhere; it must simply complete.
		sssp := tinyWorkload
		sssp.App = "SSSP"
		if _, err := tc.nodes[0].cli.RunSync(sssp, 0); err != nil {
			t.Fatal(err)
		}
	})

	for _, point := range []string{"cluster.place.", "cluster.execute."} {
		t.Run("fallback/"+point, func(t *testing.T) {
			defer fail.Reset()
			tc := bootCluster(t, 3)
			spec, hash, owner, simNode := tc.placedSpec(t, tinyWorkload)
			fail.Arm(point+simNode.id, nil)
			if _, err := tc.nodes[0].cli.RunSync(spec, 0); err != nil {
				t.Fatal(err)
			}
			if fail.Hits(point+simNode.id) != 1 {
				t.Fatalf("%s%s fired %d times, want 1", point, simNode.id, fail.Hits(point+simNode.id))
			}
			if got := owner.mgr.Metrics().Executed; got != 1 || sims(owner) != 1 {
				t.Errorf("hash owner executed %d jobs and simulated %d, want 1 and 1", got, sims(owner))
			}
			if f, p := owner.srv.placeFallbacks.Load(), owner.srv.placed.Load(); f != 1 || p != 0 {
				t.Errorf("owner counted %d fallbacks and %d placements, want 1 and 0", f, p)
			}
			if sims(simNode) != 0 || simNode.srv.placedServed.Load() != 0 {
				t.Errorf("the unreachable node simulated all the same")
			}
			if got, want := tc.holders(hash), owner.srv.Cluster().ReplicationFactor(); got != want {
				t.Errorf("%d nodes hold the outcome, want the %d owners of its hash", got, want)
			}
		})
	}

	t.Run("peer's simulation error fails the job once", func(t *testing.T) {
		defer fail.Reset()
		tc := bootCluster(t, 3)
		spec, hash, owner, simNode := tc.placedSpec(t, tinyWorkload)
		// The failpoint sits inside the panic barrier on both nodes: the
		// owner's worker passes it first, the placed run hits it second.
		fail.ArmAfter("jobs.execute", 1, errors.New("the peer's own simulation error"))
		sub, err := owner.cli.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := owner.cli.WaitJob(sub.ID, time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StateFailed || !strings.Contains(st.Error, "the peer's own simulation error") {
			t.Fatalf("job ended %s (%q), want failed with the peer's message", st.State, st.Error)
		}
		if got := fail.Hits("jobs.execute"); got != 1 {
			t.Errorf("the simulation was attempted %d times after the pass, want once (no local retry)", got)
		}
		if f, p, s := owner.srv.placeFallbacks.Load(), owner.srv.placed.Load(), simNode.srv.placedServed.Load(); f != 0 || p != 1 || s != 1 {
			t.Errorf("fallbacks %d, placed %d, served %d; want 0, 1, 1", f, p, s)
		}
		if sims(owner)+sims(simNode) != 0 || tc.holders(hash) != 0 {
			t.Error("a failed placed job simulated or stored something")
		}
	})

	t.Run("skew", func(t *testing.T) {
		tc := bootCluster(t, 3)
		spec, _, owner, simNode := tc.placedSpec(t, tinyWorkload)
		resp := postExecute(t, simNode, spec, strings.Repeat("0", 64))
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("execute under a hash the spec does not have answered %s, want 409", resp.Status)
		}
		if sims(simNode) != 0 || simNode.srv.placedServed.Load() != 0 {
			t.Error("a refused execute simulated")
		}

		// A graph file edited after the job was hashed: the workload's node
		// cannot reproduce the address (409), the owner simulates the new
		// bytes itself and its post-run identity check fails the job.
		path := filepath.Join(t.TempDir(), "edited.el")
		writeGraph := func(g *graph.CSR, mtime time.Time) {
			t.Helper()
			var buf bytes.Buffer
			if err := graph.WriteEdgeList(&buf, g); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, mtime, mtime); err != nil {
				t.Fatal(err)
			}
		}
		writeGraph(graph.GenRMATDefault(6, 4, 13, false), time.Now())
		fspec, fhash, owner, _ := tc.placedSpec(t, jobs.Spec{Kind: jobs.KindSingle, Graph: path, Scale: 256})
		// One worker per node: the file job waits behind this one.
		if _, _, err := owner.mgr.Submit(jobs.Spec{Kind: jobs.KindSingle, Graph: "lj", Scale: 16}, 0); err != nil {
			t.Fatal(err)
		}
		j, disp, err := owner.mgr.Submit(fspec, 0)
		if err != nil || disp != jobs.Queued {
			t.Fatalf("file job: disposition %v, err %v", disp, err)
		}
		writeGraph(graph.GenRMATDefault(8, 4, 13, false), time.Now().Add(2*time.Second))
		<-j.Done()
		if st := j.Status(); st.State != jobs.StateFailed || !strings.Contains(st.Error, "changed while the job was queued or running") {
			t.Fatalf("file job ended %s (%q), want failed: the file changed", st.State, st.Error)
		}
		if got := owner.srv.placeFallbacks.Load(); got != 1 {
			t.Errorf("owner counted %d fallbacks, want 1 (the 409)", got)
		}
		if tc.holders(fhash) != 0 {
			t.Error("the edited file's metrics were stored under the original address")
		}
	})

	t.Run("cancel reaches the simulating node", func(t *testing.T) {
		arrived, finished := make(chan string, 1), make(chan string, 1)
		tc := bootClusterWith(t, 3, 20*time.Millisecond, func(id string, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/internal/execute" {
					h.ServeHTTP(w, r)
					return
				}
				arrived <- id
				h.ServeHTTP(w, r)
				finished <- id
			})
		})
		// Large enough that the cancel lands long before the recording ends.
		spec, hash, owner, simNode := tc.placedSpec(t, jobs.Spec{Kind: jobs.KindSingle, Graph: "lj", Scale: 8})
		sub, err := owner.cli.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := <-arrived; got != simNode.id {
			t.Fatalf("the simulation went to %s, want %s", got, simNode.id)
		}
		if _, err := owner.cli.Cancel(sub.ID); err != nil {
			t.Fatal(err)
		}
		st, err := owner.cli.WaitJob(sub.ID, time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StateFailed || st.Error != jobs.ErrCanceled.Error() {
			t.Fatalf("cancelled job ended %s (%q), want failed with %q", st.State, st.Error, jobs.ErrCanceled)
		}
		<-finished
		for _, nd := range []*clusterNode{owner, simNode} {
			if m := nd.mgr.Metrics(); sims(nd) != 0 || m.CacheBytesRetained != 0 {
				t.Errorf("%s published after the cancel: %d simulations, %d cache bytes retained", nd.id, sims(nd), m.CacheBytesRetained)
			}
		}
		if got := owner.srv.placeFallbacks.Load(); got != 0 {
			t.Errorf("a cancelled job fell back to a local run %d times", got)
		}
		if tc.holders(hash) != 0 {
			t.Error("a cancelled job stored an outcome")
		}
	})

	t.Run("no loop", func(t *testing.T) {
		tc := bootCluster(t, 3)
		spec, hash, owner, simNode := tc.placedSpec(t, tinyWorkload)
		// The owner of the hash is not the workload's owner, and is asked to
		// simulate anyway: it must do so itself.
		resp := postExecute(t, owner, spec, hash)
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("execute answered %s (%v): %s", resp.Status, err, data)
		}
		if got := sha256Hex(data); got != resp.Header.Get(resultSumHeader) {
			t.Errorf("body hashes to %s, header says %s", got, resp.Header.Get(resultSumHeader))
		}
		if sims(owner) != 1 || owner.srv.placedServed.Load() != 1 {
			t.Errorf("asked node simulated %d and served %d, want 1 and 1", sims(owner), owner.srv.placedServed.Load())
		}
		if p, f := owner.srv.placed.Load(), owner.srv.placeFallbacks.Load(); p+f != 0 {
			t.Errorf("a placed run called out: %d placed, %d fallbacks", p, f)
		}
		if sims(simNode) != 0 || simNode.srv.placedServed.Load() != 0 {
			t.Error("the workload's owner was involved")
		}
		if m := owner.mgr.Metrics(); m.Submitted+m.Executed != 0 || tc.holders(hash) != 0 {
			t.Error("a placed run became a job or stored an outcome")
		}
	})

	t.Run("failover agrees on one recorder", func(t *testing.T) {
		defer fail.Reset()
		tc := bootCluster(t, 3)
		cl := tc.nodes[0].srv.Cluster()
		key, err := func() (string, error) {
			s := tinyWorkload
			if err := s.Canonicalize(); err != nil {
				return "", err
			}
			return s.PlacementKey()
		}()
		if err != nil {
			t.Fatal(err)
		}
		ring := cl.Owners(key)
		home, successor := tc.node(ring[0].ID), tc.node(ring[1].ID)
		var survivors []*clusterNode
		for _, nd := range tc.nodes {
			if nd != home {
				survivors = append(survivors, nd)
			}
		}
		// The workload's node is partitioned away from everyone.
		for _, point := range []string{"cluster.probe.", "cluster.forward.", "cluster.replicate.", "cluster.place."} {
			fail.Arm(point+home.id, nil)
		}
		for _, nd := range survivors {
			for nd.srv.Cluster().State(home.id) != cluster.StateDown {
				time.Sleep(time.Millisecond)
			}
		}
		for i, p := range sim.Policies()[:6] {
			s := tinyWorkload
			s.Policy = p.Name
			if _, err := survivors[i%2].cli.RunSync(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, nd := range tc.nodes {
			if simulated := sims(nd) > 0; simulated != (nd == successor) {
				t.Errorf("%s simulated %d datapoints; with %s down the workload lives on %s alone",
					nd.id, sims(nd), home.id, successor.id)
			}
		}
		if got := fail.Hits("cluster.place." + home.id); got != 0 {
			t.Errorf("%d placements were still tried on the node every prober calls down", got)
		}
	})
}
