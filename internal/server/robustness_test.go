package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grasp/internal/fail"
	"grasp/internal/jobs"
)

// longSpec occupies a worker for seconds — long enough for the test to
// act while it runs. Distinct from fig2Spec, so the two never dedup onto
// one job.
func longSpec() jobs.Spec {
	return jobs.Spec{Kind: jobs.KindExperiment, Exp: "fig9", Scale: 64}
}

// postJob submits a spec body without the client's retry loop, so tests
// asserting 429/503 see the raw status instead of waiting out backoffs.
func postJob(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCancelEndpoint drives DELETE /jobs/{id} through its whole surface:
// 200 for a queued job (settled as canceled), 409 once terminal, 404 for
// unknown IDs, and preemption of a running job.
func TestCancelEndpoint(t *testing.T) {
	client, _, _ := bootDaemon(t, t.TempDir(), 1)

	running, err := client.Submit(longSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(fig2Spec(), 0) // distinct spec, waits behind
	if err != nil {
		t.Fatal(err)
	}

	st, err := client.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != queued.ID {
		t.Errorf("cancel returned job %s, want %s", st.ID, queued.ID)
	}
	final, err := client.WaitJob(queued.ID, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateFailed || final.Error != jobs.ErrCanceled.Error() {
		t.Errorf("cancelled job settled as %s %q", final.State, final.Error)
	}

	if _, err := client.Cancel(queued.ID); err == nil || !strings.Contains(err.Error(), "409") &&
		!strings.Contains(err.Error(), "already") {
		t.Errorf("cancel of settled job = %v, want 409 conflict", err)
	}
	if _, err := client.Cancel("j999999"); err == nil || !strings.Contains(err.Error(), "404") &&
		!strings.Contains(err.Error(), "unknown job") {
		t.Errorf("cancel of unknown job = %v, want 404", err)
	}

	// The running job is preempted at its next cancellation point.
	if _, err := client.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final, err = client.WaitJob(running.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateFailed || final.Error != jobs.ErrCanceled.Error() {
		t.Errorf("cancelled running job settled as %s %q", final.State, final.Error)
	}
}

// TestWaitFailureCode: a waited-on job's terminal error maps to drain
// (503), cancellation (409), deadline (504) or anything else (422).
func TestWaitFailureCode(t *testing.T) {
	for _, c := range []struct {
		msg  string
		want int
	}{
		{jobs.ErrDraining.Error(), http.StatusServiceUnavailable},
		{jobs.ErrCanceled.Error(), http.StatusConflict},
		{jobs.ErrTimeout.Error(), http.StatusGatewayTimeout},
		{"exp: unknown policy \"NOPE\"", http.StatusUnprocessableEntity},
	} {
		if got := waitFailureCode(c.msg); got != c.want {
			t.Errorf("waitFailureCode(%q) = %d, want %d", c.msg, got, c.want)
		}
	}
}

// TestWaitCanceledAnswers409: a POST /jobs with wait=true whose job is
// cancelled by DELETE /jobs/{id} while it waits answers 409.
func TestWaitCanceledAnswers409(t *testing.T) {
	client, mgr, ts := bootDaemon(t, t.TempDir(), 1)
	running, err := client.Submit(longSpec(), 0) // holds the one worker, so the waited job queues
	if err != nil {
		t.Fatal(err)
	}
	defer client.Cancel(running.ID)
	codes := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"kind":"experiment","exp":"fig2","scale":64,"wait":true}`))
		if err != nil {
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	// The waiter's own submission makes the next job; once it exists the
	// handler is (or is about to be) blocked on it.
	const waited = "j000002"
	for mgr.Job(waited) == nil {
		time.Sleep(time.Millisecond)
	}
	if _, err := client.Cancel(waited); err != nil {
		t.Fatal(err)
	}
	if code := <-codes; code != http.StatusConflict {
		t.Errorf("a waited-on job cancelled while it waits answered %d, want 409", code)
	}
}

// TestRateLimit429: beyond the per-client token bucket, POST /jobs answers
// 429 with a Retry-After hint, and the rejection is counted in /metrics.
func TestRateLimit429(t *testing.T) {
	store, err := jobs.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(store, 1)
	ts := httptest.NewServer(NewWith(mgr, Options{RatePerSec: 0.01, Burst: 1}))
	t.Cleanup(ts.Close)

	first := postJob(t, ts, `{"kind":"single","graph":"uni","scale":256}`)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", first.StatusCode)
	}
	second := postJob(t, ts, `{"kind":"single","graph":"uni","app":"BFS","scale":256}`)
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if !strings.Contains(body, "graspd_rate_limited_total 1") {
		t.Errorf("metrics missing rate_limited_total 1:\n%s", body)
	}
}

// TestLoadShedding503: with the queue at its depth limit, new work is shed
// with 503 + Retry-After and /readyz reports not-ready, while a duplicate
// of queued work still joins it.
func TestLoadShedding503(t *testing.T) {
	client, mgr, ts := bootDaemon(t, t.TempDir(), 1)
	mgr.SetQueueLimit(1)

	running, err := client.Submit(longSpec(), 0) // occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(fig2Spec(), 0) // fills the queue
	if err != nil {
		t.Fatal(err)
	}

	shed := postJob(t, ts, `{"kind":"single","graph":"uni","app":"BFS","scale":256}`)
	defer shed.Body.Close()
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit beyond queue limit = %d, want 503", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while overloaded = %d, want 503", ready.StatusCode)
	}
	// A duplicate consumes no queue slot and must not be shed.
	dup, err := client.Submit(fig2Spec(), 0)
	if err != nil {
		t.Fatalf("dedup join while overloaded rejected: %v", err)
	}
	if dup.Disposition != jobs.Deduped || dup.ID != queued.ID {
		t.Errorf("duplicate submit = %+v, want dedup onto %s", dup, queued.ID)
	}
	// Unblock the cleanup Shutdown promptly.
	client.Cancel(queued.ID)
	client.Cancel(running.ID)
}

// TestHealthzDegraded: a failing store write marks the daemon degraded on
// /healthz and flips the degraded gauge, without failing the job.
func TestHealthzDegraded(t *testing.T) {
	defer fail.Reset()
	client, _, ts := bootDaemon(t, t.TempDir(), 1)
	fail.Arm("store.put", nil)
	if _, err := client.RunSync(fig2Spec(), 0); err != nil {
		t.Fatalf("job with failing store write errored: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"degraded": true`) {
		t.Errorf("degraded healthz = %d %s, want 200 with degraded true", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if !strings.Contains(body, "graspd_degraded 1") {
		t.Errorf("metrics missing degraded gauge:\n%s", body)
	}
}

// TestClientRetriesHonorRetryAfter: the client retries a 503 and succeeds
// once the condition clears — here a queue that frees up between attempts.
func TestClientRetriesHonorRetryAfter(t *testing.T) {
	var hits int
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, jobs.ErrOverloaded)
			return
		}
		writeJSON(w, http.StatusAccepted, SubmitResponse{Disposition: jobs.Queued})
	}))
	t.Cleanup(mock.Close)
	start := time.Now()
	resp, err := NewClient(mock.URL).Submit(jobs.Spec{Kind: jobs.KindSingle, Graph: "uni"}, 0)
	if err != nil {
		t.Fatalf("submit through transient 503: %v", err)
	}
	if resp.Disposition != jobs.Queued || hits != 2 {
		t.Errorf("disposition=%v hits=%d, want queued after exactly one retry", resp.Disposition, hits)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retry came after %v, want >= the 1s Retry-After hint", elapsed)
	}
}

// readBody drains and closes a response body as a string.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
