package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grasp/internal/jobs"
)

// bootDaemon starts a full graspd stack (store → manager → HTTP server)
// on an httptest listener over dir and returns a client for it.
func bootDaemon(t *testing.T, dir string, workers int) (*Client, *jobs.Manager, *httptest.Server) {
	t.Helper()
	store, err := jobs.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(store, workers)
	ts := httptest.NewServer(New(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return NewClient(ts.URL), mgr, ts
}

// fig2Spec is the CI smoke job: the paper's fig2 experiment at 1/64
// scale — 10 datapoints, a few seconds of simulation at most.
func fig2Spec() jobs.Spec {
	return jobs.Spec{Kind: jobs.KindExperiment, Exp: "fig2", Scale: 64}
}

// TestSmokeCachedSecondRequest is the acceptance smoke: boot graspd,
// submit a tiny fig2-scale job, and require the identical second request
// to be answered from the result store — without re-simulating, and in
// under 100ms.
func TestSmokeCachedSecondRequest(t *testing.T) {
	client, mgr, _ := bootDaemon(t, t.TempDir(), 2)

	first, err := client.RunSync(fig2Spec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Output == "" {
		t.Fatal("first run returned no rendered experiment body")
	}
	if got := mgr.Metrics().Executed; got != 1 {
		t.Fatalf("executed = %d after first run, want 1", got)
	}

	// Time the best of three cached round-trips: each is a pure store hit,
	// so the minimum is the honest measure of the serving path while a GC
	// pause or a noisy CI runner cannot flake a single sample past the
	// bound.
	cachedIn := time.Duration(1<<63 - 1)
	var second *jobs.Outcome
	for i := 0; i < 3; i++ {
		start := time.Now()
		o, err := client.RunSync(fig2Spec(), 0)
		if d := time.Since(start); d < cachedIn {
			cachedIn = d
		}
		if err != nil {
			t.Fatal(err)
		}
		second = o
	}
	if second.Output != first.Output {
		t.Error("cached outcome differs from the original")
	}
	if got := mgr.Metrics(); got.Executed != 1 || got.StoreHits != 3 {
		t.Errorf("after cached runs: executed=%d storeHits=%d, want 1 and 3", got.Executed, got.StoreHits)
	}
	if cachedIn >= 100*time.Millisecond {
		t.Errorf("cached request took %v at best, want <100ms", cachedIn)
	}

	// Async third submission reports the cached disposition explicitly.
	resp, err := client.Submit(fig2Spec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != jobs.Cached || !resp.Cached {
		t.Errorf("third submit disposition = %v cached=%v, want cached", resp.Disposition, resp.Cached)
	}
	if got, err := client.Result(resp.Hash); err != nil || got.Output != first.Output {
		t.Errorf("GET %s: err=%v, body match=%v", resp.ResultURL, err, err == nil && got.Output == first.Output)
	}
}

// TestPersistenceAcrossRestart: a rebooted daemon over the same data dir
// answers from disk.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	client1, _, ts1 := bootDaemon(t, dir, 1)
	spec := jobs.Spec{Kind: jobs.KindSingle, Graph: "uni", App: "PR", Policy: "GRASP", Scale: 256}
	first, err := client1.RunSync(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	client2, mgr2, _ := bootDaemon(t, dir, 1)
	resp, err := client2.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != jobs.Cached {
		t.Fatalf("restarted daemon disposition = %v, want cached", resp.Disposition)
	}
	if mgr2.Metrics().Executed != 0 {
		t.Error("restarted daemon re-simulated stored work")
	}
	got, err := client2.Result(first.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if got.Single == nil || got.Single.LLC.Misses != first.Single.LLC.Misses {
		t.Error("restarted daemon served different metrics")
	}
}

// TestJobLifecycleEndpoints exercises the async path: submit without
// wait, poll GET /jobs/{id} to completion, fetch GET /results/{hash}.
func TestJobLifecycleEndpoints(t *testing.T) {
	client, _, _ := bootDaemon(t, t.TempDir(), 1)
	spec := jobs.Spec{Kind: jobs.KindSingle, Graph: "uni", App: "BFS", Policy: "LRU", Scale: 256}
	resp, err := client.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != jobs.Queued || resp.ID == "" || resp.Hash == "" {
		t.Fatalf("unexpected submit response: %+v", resp)
	}
	if resp.Priority != 3 {
		t.Errorf("priority = %d, want 3", resp.Priority)
	}
	st, err := client.WaitJob(resp.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	o, err := client.Result(resp.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if o.Single == nil || o.Spec.App != "BFS" {
		t.Errorf("stored outcome wrong: %+v", o)
	}
}

// TestValidationAndNotFound covers the 4xx surface.
func TestValidationAndNotFound(t *testing.T) {
	client, _, ts := bootDaemon(t, t.TempDir(), 1)
	if _, err := client.Submit(jobs.Spec{Kind: "nope"}, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown job kind") {
		t.Errorf("bad kind error = %v", err)
	}
	if _, err := client.Submit(jobs.Spec{Kind: jobs.KindExperiment, Exp: "fig99"}, 0); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := client.Job("j999999"); err == nil || !strings.Contains(err.Error(), "404") &&
		!strings.Contains(err.Error(), "unknown job") {
		t.Errorf("missing job error = %v", err)
	}
	if _, err := client.Result("deadbeef"); err == nil {
		t.Error("missing result did not 404")
	}
	// Unknown body fields are rejected (catches misspelled spec keys).
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"single","graph":"uni","polcy":"LRU"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misspelled field got HTTP %d, want 400", resp.StatusCode)
	}
}

// TestResultKeyMustBeHash: GET /results/x%2F<hash> names no stored
// outcome, so it is a plain 404 that touches no file. The store must not
// read <hash>'s file under that key, find it self-identifying as another
// hash and quarantine a valid result.
func TestResultKeyMustBeHash(t *testing.T) {
	dir := t.TempDir()
	_, mgr, ts := bootDaemon(t, dir, 1)
	hash := strings.Repeat("0123456789abcdef", 4)
	if err := mgr.Store().Put(&jobs.Outcome{Hash: hash, Output: "stored"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/results/x%2F" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /results/x%%2F<hash>: HTTP %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, hash+".json")); err != nil {
		t.Errorf("the valid result's file is gone: %v", err)
	}
	if n := mgr.Store().Corrupt(); n != 0 {
		t.Errorf("%d entries quarantined, want 0", n)
	}
}

// TestHealthzAndMetrics checks the observability endpoints, including the
// liveness/readiness split: /healthz stays 200 while draining (restarting
// a daemon finishing its last jobs helps nobody) while /readyz flips to
// 503 so load balancers stop routing to it.
func TestHealthzAndMetrics(t *testing.T) {
	client, mgr, ts := bootDaemon(t, t.TempDir(), 1)
	if _, err := client.RunSync(jobs.Spec{Kind: jobs.KindSingle, Graph: "uni", Scale: 256}, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Workers != 1 {
		t.Errorf("healthz = %d %+v", resp.StatusCode, health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"graspd_jobs_submitted_total 1",
		"graspd_jobs_executed_total 1",
		"graspd_sim_runs_total 1",
		"graspd_stored_outcomes 1",
		"graspd_workers 1",
		"graspd_cache_bytes_retained ", // the job's recording stays cached for the group's next policy
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics missing %q:\n%s", metric, body)
		}
	}
	if strings.Contains(string(body), "graspd_cache_bytes_retained 0\n") {
		t.Errorf("graspd_cache_bytes_retained is 0 after a simulated job:\n%s", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Liveness: the process is still alive and answering, so /healthz
	// stays 200 — the body carries the draining status.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}{}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "draining" {
		t.Errorf("draining healthz = %d %+v, want 200 status=draining", resp.StatusCode, health)
	}
	// Readiness: /readyz flips to 503 with a Retry-After hint.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz carries no Retry-After header")
	}
	// Submit bypasses the client so its 503-retry loop does not stretch
	// the test; draining rejections are terminal for this process anyway.
	post, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"single","graph":"uni","scale":256}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("submit while draining = %d %s, want 503 draining", post.StatusCode, body)
	}
}
