package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"grasp/internal/fail"
)

// twoNodeConfig builds a config for self "a" with one probed peer "b" at
// addr.
func twoNodeConfig(addr string) Config {
	return Config{
		Self: "a",
		Peers: []Peer{
			{ID: "a", Addr: "http://localhost:0"},
			{ID: "b", Addr: addr},
		},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
		DownAfter:     3,
	}
}

// TestConfigValidation covers New's rejection surface.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: "a"}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := New(Config{Self: "x", Peers: []Peer{{ID: "a", Addr: "u"}}}); err == nil {
		t.Error("self missing from peer list accepted")
	}
	if _, err := New(Config{Self: "a", Peers: []Peer{{ID: "a", Addr: "u"}, {ID: "a", Addr: "v"}}}); err == nil {
		t.Error("duplicate peer id accepted")
	}
	if _, err := New(Config{Self: "a", Peers: []Peer{{ID: "a"}}}); err == nil {
		t.Error("empty peer addr accepted")
	}
	c, err := New(Config{Self: "a", Peers: []Peer{{ID: "a", Addr: "u/"}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.ReplicationFactor() != 1 {
		t.Errorf("RF of a one-peer cluster is %d, want 1 (min(2, peers))", c.ReplicationFactor())
	}
	if got := c.Self().Addr; got != "u" {
		t.Errorf("self addr %q, want the trailing slash trimmed", got)
	}
}

// TestProbeStateMachine drives a peer through up → suspect → down as its
// /readyz stops answering, then back to up when it recovers.
func TestProbeStateMachine(t *testing.T) {
	healthy := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c, err := New(twoNodeConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	// Drive probes synchronously — the background prober exists for the
	// daemon; the state machine is what is under test.
	c.probeAll()
	if got := c.State("b"); got != StateUp {
		t.Fatalf("after healthy probe: %s, want up", got)
	}

	healthy = false
	c.probeAll()
	if got := c.State("b"); got != StateSuspect {
		t.Fatalf("after 1 failed probe: %s, want suspect", got)
	}
	c.probeAll()
	c.probeAll()
	if got := c.State("b"); got != StateDown {
		t.Fatalf("after 3 failed probes: %s, want down", got)
	}

	healthy = true
	c.probeAll()
	if got := c.State("b"); got != StateUp {
		t.Fatalf("after recovery probe: %s, want up", got)
	}
}

// TestProbeFailpointInjectsPartition: arming cluster.probe.<id> partitions
// that peer without touching the network, and Candidates routes around it
// while Owners still names it (replication must know ideal placement).
func TestProbeFailpointInjectsPartition(t *testing.T) {
	defer fail.Reset()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c, err := New(twoNodeConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	fail.Arm("cluster.probe.b", nil)
	for i := 0; i < 3; i++ {
		c.probeAll()
	}
	if got := c.State("b"); got != StateDown {
		t.Fatalf("with cluster.probe.b armed: %s, want down", got)
	}
	// Find a hash owned by b; Candidates must route it to a instead.
	var h string
	for i := 0; ; i++ {
		h = jobHash(i)
		if c.Owners(h)[0].ID == "b" {
			break
		}
	}
	cand := c.Candidates(h)
	if len(cand) != 1 || cand[0].ID != "a" {
		t.Errorf("candidates with b down = %v, want just a", cand)
	}
	if owners := c.Owners(h); owners[0].ID != "b" {
		t.Errorf("Owners must ignore health; got %v", owners)
	}

	fail.Reset()
	c.probeAll()
	if got := c.State("b"); got != StateUp {
		t.Fatalf("after heal: %s, want up", got)
	}
}

// TestReportFeedsHealth is the one health rule: a transport error, an
// injected fault or an answer >= 500 counts against a peer, and any other
// answer — a 404 for a result the peer does not hold included — proves it
// up. Three failures in a row make it down without waiting for the
// prober; the local node never degrades.
func TestReportFeedsHealth(t *testing.T) {
	failed := errors.New("connection refused")
	for _, tc := range []struct {
		name string
		resp *http.Response
		err  error
		up   bool
	}{
		{"error", nil, failed, false},
		{"500", &http.Response{StatusCode: 500}, nil, false},
		{"502", &http.Response{StatusCode: 502}, nil, false},
		{"503", &http.Response{StatusCode: 503}, nil, false},
		{"200", &http.Response{StatusCode: 200}, nil, true},
		{"404", &http.Response{StatusCode: 404}, nil, true},
		{"409", &http.Response{StatusCode: 409}, nil, true},
		{"422", &http.Response{StatusCode: 422}, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(twoNodeConfig("http://localhost:0"))
			if err != nil {
				t.Fatal(err)
			}
			c.Report("b", nil, failed)
			c.Report("b", nil, failed)
			c.Report("b", tc.resp, tc.err)
			want := StateDown
			if tc.up {
				want = StateUp
			}
			if got := c.State("b"); got != want {
				t.Errorf("after two failures and %s: %s, want %s", tc.name, got, want)
			}
			c.Report("a", tc.resp, tc.err)
			if got := c.State("a"); got != StateUp {
				t.Errorf("self state %s, want up", got)
			}
		})
	}
}

// TestSnapshotStates: the /cluster body carries every member with its
// state, self marked.
func TestSnapshotStates(t *testing.T) {
	c, err := New(twoNodeConfig("http://localhost:0"))
	if err != nil {
		t.Fatal(err)
	}
	c.Report("b", nil, errors.New("connection refused"))
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d members, want 2", len(snap))
	}
	if !snap[0].Self || snap[0].ID != "a" || snap[0].State != StateUp {
		t.Errorf("self entry wrong: %+v", snap[0])
	}
	if snap[1].ID != "b" || snap[1].State != StateSuspect || snap[1].Failures != 1 {
		t.Errorf("peer entry wrong: %+v", snap[1])
	}
}

// TestStartStopProber: the background prober runs and halts cleanly
// (exercised under -race in CI).
func TestStartStopProber(t *testing.T) {
	probes := make(chan struct{}, 64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case probes <- struct{}{}:
		default:
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c, err := New(twoNodeConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	select {
	case <-probes:
	case <-time.After(5 * time.Second):
		t.Fatal("prober never probed")
	}
	c.Stop()
	if got := c.State("b"); got != StateUp {
		t.Errorf("probed healthy peer is %s, want up", got)
	}
}
