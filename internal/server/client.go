package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"grasp/internal/jobs"
)

// Client talks to a graspd daemon; it is what `graspsim -remote` uses.
// Requests carry bounded connect, TLS-handshake and response-header
// timeouts — a daemon that stops answering fails the call instead of
// hanging it forever — while body reads stay unbounded, because a
// synchronous submission (RunSync) legitimately holds the response open
// for the duration of a simulation. Transient failures (connection
// errors, 429 rate limiting, 503 shedding/draining) are retried with
// exponential backoff and jitter, honoring the server's Retry-After hint;
// retrying POST /jobs is safe because jobs are content-addressed — a
// duplicate submission dedups or hits the result store, never runs twice.
type Client struct {
	// bases is the endpoint rotation, e.g. ["http://localhost:8337"]
	// (cluster mode hands the client every node); next indexes the endpoint new requests try first,
	// advanced whenever an endpoint fails with a transport error or 5xx so
	// traffic settles on a live node instead of re-discovering the dead one
	// per call.
	bases []string
	next  atomic.Uint32
}

// NewClient returns a client for the daemon(s) at base: one base URL, or
// several comma-separated (e.g. "host1:8337,host2:8337" — how a cluster's
// member list is handed to graspsim -remote). Scheme optional; bare
// host:port gets "http://". With several endpoints the client rotates to
// the next on transport errors and 5xx responses; jobs being
// content-addressed makes resubmitting through a different node safe.
func NewClient(base string) *Client {
	var bases []string
	for _, b := range strings.Split(base, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		bases = append(bases, strings.TrimRight(b, "/"))
	}
	if len(bases) == 0 {
		bases = []string{"http://"}
	}
	return &Client{bases: bases}
}

// base returns the endpoint new requests should try first.
func (c *Client) base() string {
	return c.bases[int(c.next.Load())%len(c.bases)]
}

// rotate advances the rotation past a failed endpoint.
func (c *Client) rotate() { c.next.Add(1) }

// newTransport builds an http.Transport with bounded connect and TLS
// handshake phases; responseHeader bounds the wait for response HEADERS
// only (0 = unbounded, for requests that block server-side until a job
// completes). Deliberately no http.Client.Timeout: that would cap the
// whole exchange including the body read, and outcomes can be large and
// slow to produce.
func newTransport(responseHeader time.Duration) *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: responseHeader,
		MaxIdleConns:          16,
		IdleConnTimeout:       90 * time.Second,
	}
}

// shortOpClient serves the quick control-plane calls (submit-async,
// status polls, cancel, stored-result fetches): the server answers these
// immediately, so a 30s header timeout only fires when it is genuinely
// stuck. longOpClient serves wait=true submissions, whose headers
// legitimately arrive only when the simulation finishes.
var (
	shortOpClient = &http.Client{Transport: newTransport(30 * time.Second)}
	longOpClient  = &http.Client{Transport: newTransport(0)}
)

// Retry schedule: up to retryMax retries after the initial attempt,
// exponential from retryBase, capped, with jitter so a fleet of clients
// bounced by one shedding daemon does not reconverge in lockstep.
const (
	retryMax  = 4
	retryBase = 200 * time.Millisecond
	retryCap  = 5 * time.Second
)

// backoffDelay returns the sleep before retry attempt (0-based), taking
// the server's Retry-After hint as a floor when present.
func backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	d := retryBase << attempt
	if d > retryCap {
		d = retryCap
	}
	// Full jitter over [d/2, d).
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a delay-seconds Retry-After header (0 if absent
// or not an integer — the HTTP-date form is not worth parsing here).
func parseRetryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// retryableStatus reports whether an HTTP status is worth retrying: 429
// (rate limited) and 503 (shedding or draining) are explicitly transient
// and carry Retry-After.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// do issues one JSON request with retries and endpoint rotation. body is
// re-marshaled bytes (safe to resend); out receives the decoded success
// body. Each backoff round tries every configured endpoint once —
// transport errors and 5xx responses rotate to the next endpoint
// immediately (another node can often serve what this one cannot), while
// the sleeps between rounds honor the largest Retry-After hint seen. A
// canceled ctx returns at once, both mid-request and mid-backoff: a
// wait=true long poll whose caller gives up must not burn the rest of the
// retry schedule against a job nobody is waiting for.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, long bool) error {
	eps := c.bases
	var lastErr error
	for attempt := 0; ; attempt++ {
		sawTransient := false
		var retryAfter time.Duration
		for range eps {
			var reqBody io.Reader
			if body != nil {
				reqBody = bytes.NewReader(body)
			}
			req, err := http.NewRequestWithContext(ctx, method, c.base()+path, reqBody)
			if err != nil {
				return err
			}
			if body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			hc := shortOpClient
			if long {
				hc = longOpClient
			}
			resp, err := hc.Do(req)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err() // caller hung up, not a daemon failure
				}
				lastErr = err
				sawTransient = true
				c.rotate()
				continue
			}
			switch {
			case retryableStatus(resp.StatusCode):
				if ra := parseRetryAfter(resp); ra > retryAfter {
					retryAfter = ra
				}
				lastErr = decodeResponse(resp, nil)
				sawTransient = true
				c.rotate()
			case resp.StatusCode >= http.StatusInternalServerError && len(eps) > 1:
				// Another node may succeed where this one 5xx'd; rotate to
				// it this round, but a 5xx alone does not buy more backoff
				// rounds — if every endpoint 5xx's, the failure is real.
				lastErr = decodeResponse(resp, nil)
				c.rotate()
			default:
				return decodeResponse(resp, out)
			}
		}
		if !sawTransient || attempt >= retryMax {
			return lastErr
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoffDelay(attempt, retryAfter)):
		}
	}
}

// Submit posts a job and returns its accepted status without waiting.
func (c *Client) Submit(spec jobs.Spec, priority int) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.post(context.Background(), "/jobs", SubmitRequest{Spec: spec, Priority: priority}, &out, false)
	return out, err
}

// RunSync posts a job with wait=true and returns the completed outcome —
// served from the daemon's result store if the work was done before. The
// call holds its connection open for the duration of the simulation (no
// response-header timeout applies).
func (c *Client) RunSync(spec jobs.Spec, priority int) (*jobs.Outcome, error) {
	return c.RunSyncContext(context.Background(), spec, priority)
}

// RunSyncContext is RunSync bounded by a caller context: canceling ctx
// abandons the long poll immediately — including any backoff sleep the
// retry loop is in — instead of riding out the full retry schedule.
func (c *Client) RunSyncContext(ctx context.Context, spec jobs.Spec, priority int) (*jobs.Outcome, error) {
	var out jobs.Outcome
	if err := c.post(ctx, "/jobs", SubmitRequest{Spec: spec, Priority: priority, Wait: true}, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches the current status of a job by ID.
func (c *Client) Job(id string) (jobs.Status, error) {
	var out jobs.Status
	err := c.get("/jobs/"+id, &out)
	return out, err
}

// Cancel requests cancellation of a job by ID (DELETE /jobs/{id}) and
// returns the job's snapshot at acceptance. A running job settles
// asynchronously — poll Job until it leaves the running state.
func (c *Client) Cancel(id string) (jobs.Status, error) {
	var out jobs.Status
	err := c.do(context.Background(), http.MethodDelete, "/jobs/"+id, nil, &out, false)
	return out, err
}

// Result fetches a stored outcome by spec hash.
func (c *Client) Result(hash string) (*jobs.Outcome, error) {
	var out jobs.Outcome
	if err := c.get("/results/"+hash, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it leaves the queued/running states, with the
// given interval, and returns its terminal status. Prefer RunSync unless
// progress reporting is needed; onPoll (optional) observes each snapshot.
func (c *Client) WaitJob(id string, interval time.Duration, onPoll func(jobs.Status)) (jobs.Status, error) {
	for {
		st, err := c.Job(id)
		if err != nil {
			return st, err
		}
		if onPoll != nil {
			onPoll(st)
		}
		if st.State == jobs.StateDone || st.State == jobs.StateFailed {
			return st, nil
		}
		time.Sleep(interval)
	}
}

// post sends a JSON body and decodes a JSON response into out.
func (c *Client) post(ctx context.Context, path string, body, out any, long bool) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, data, out, long)
}

// get decodes a JSON response into out.
func (c *Client) get(path string, out any) error {
	return c.do(context.Background(), http.MethodGet, path, nil, out, false)
}

// decodeResponse maps non-2xx responses to errors (surfacing the daemon's
// JSON error message) and unmarshals success bodies.
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		if msg := errorMessage(data); msg != "" {
			return fmt.Errorf("graspd: %s (HTTP %d)", msg, resp.StatusCode)
		}
		return fmt.Errorf("graspd: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
