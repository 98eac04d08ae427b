package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"grasp/internal/fail"
)

// NodeState is a peer's health as seen by the local prober.
type NodeState string

// Peer health states. The transitions are driven purely by consecutive
// Report verdicts, from probes and node-to-node requests alike: any
// success makes a peer Up; failures degrade it to Suspect after the
// first and Down after DownAfter in a row. Suspect
// peers are still routed to (one lost probe is usually a blip, and
// content addressing makes a wasted forward harmless); Down peers are
// skipped so submissions fail over to the successor without waiting out
// a connect timeout per request.
const (
	// StateUp: the last probe succeeded.
	StateUp NodeState = "up"
	// StateSuspect: at least one probe failed, but fewer than DownAfter in
	// a row — the peer is still tried for routing.
	StateSuspect NodeState = "suspect"
	// StateDown: DownAfter or more consecutive probes failed — routing
	// skips the peer until a probe succeeds again.
	StateDown NodeState = "down"
)

// Peer is one statically configured cluster member.
type Peer struct {
	// ID is the node's stable name (-node-id); ring positions derive from
	// it, so renaming a node remaps its keys while readdressing does not.
	ID string `json:"id"`
	// Addr is the node's base URL, e.g. "http://10.0.0.7:8337".
	Addr string `json:"addr"`
}

// Config describes the local node's view of the cluster.
type Config struct {
	// Self is the local node's ID; it must name an entry of Peers.
	Self string
	// Peers is the full static member list, including the local node.
	Peers []Peer
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 2s).
	ProbeTimeout time.Duration
	// DownAfter is how many consecutive probe failures demote a peer from
	// suspect to down (default 3).
	DownAfter int
}

// Status is one peer's membership snapshot, JSON-ready for the /cluster
// endpoint.
type Status struct {
	// Peer identifies the member.
	Peer
	// Self marks the local node (never probed).
	Self bool `json:"self,omitempty"`
	// State is the local prober's current verdict.
	State NodeState `json:"state"`
	// Failures is the consecutive failure count behind State.
	Failures int `json:"failures,omitempty"`
}

// Cluster is the local node's membership view: the static ring plus the
// probed health of every peer. Safe for concurrent use; Start launches
// the prober and Stop tears it down.
type Cluster struct {
	self Peer
	ring *ring
	rf   int

	probeEvery time.Duration
	downAfter  int
	client     *http.Client // probes; its Timeout is ProbeTimeout

	mu       sync.Mutex
	failures map[string]int // peer ID → consecutive failed exchanges
	stop     chan struct{}
	stopped  sync.WaitGroup
}

// New validates the configuration and builds the cluster view. The ring
// is fixed for the process lifetime — membership changes are a restart
// with a new -peers list, which the content-addressed store makes cheap
// (moved keys re-execute or cache-fill; nothing is lost).
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	// Trim each address once, so every URL built from one is base + path.
	peers := append([]Peer(nil), cfg.Peers...)
	seen := make(map[string]bool, len(peers))
	var self *Peer
	for i := range peers {
		peers[i].Addr = strings.TrimRight(peers[i].Addr, "/")
		p := peers[i]
		if p.ID == "" || p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer %d has empty id or addr", i)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		if p.ID == cfg.Self {
			self = &peers[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: -node-id %q is not in the peer list", cfg.Self)
	}
	return &Cluster{
		self:       *self,
		ring:       newRing(peers),
		rf:         min(2, len(peers)),
		probeEvery: cfg.ProbeInterval,
		downAfter:  cfg.DownAfter,
		client:     &http.Client{Timeout: cfg.ProbeTimeout},
		failures:   make(map[string]int),
		stop:       make(chan struct{}),
	}, nil
}

// Self returns the local node's peer entry.
func (c *Cluster) Self() Peer { return c.self }

// ReplicationFactor returns how many nodes hold each completed result:
// the owner and its successor, min(2, peers).
func (c *Cluster) ReplicationFactor() int { return c.rf }

// Peers returns the full static member list in ID order.
func (c *Cluster) Peers() []Peer {
	out := append([]Peer(nil), c.ring.peers...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Owners returns the ReplicationFactor distinct peers that hold a job
// hash on the ring: index 0 is the owner, 1 the replication successor,
// REGARDLESS of health — callers that route skip Down entries themselves
// (Candidates does it for them), while replication must know the ideal
// placement even when a holder is temporarily down.
func (c *Cluster) Owners(hash string) []Peer { return c.ring.owners(hash, c.rf) }

// Candidates returns the routing order for a job hash: the owner and its
// successor with Down peers filtered out. The local node is never
// filtered (we cannot be partitioned from ourselves). An empty result
// means every replica holder is down — callers fall back to local
// execution, which content addressing makes safe.
func (c *Cluster) Candidates(hash string) []Peer {
	var out []Peer
	for _, p := range c.Owners(hash) {
		if c.State(p.ID) != StateDown {
			out = append(out, p)
		}
	}
	return out
}

// State returns the local prober's verdict on one peer. The local node
// is always Up.
func (c *Cluster) State(id string) NodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked(id)
}

// stateLocked classifies a peer's consecutive failure count; c.mu is held.
func (c *Cluster) stateLocked(id string) NodeState {
	switch n := c.failures[id]; {
	case id == c.self.ID || n == 0:
		return StateUp
	case n < c.downAfter:
		return StateSuspect
	}
	return StateDown
}

// Snapshot returns every member's status in ID order (the /cluster
// endpoint's body).
func (c *Cluster) Snapshot() []Status {
	peers := c.Peers()
	out := make([]Status, 0, len(peers))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range peers {
		out = append(out, Status{Peer: p, Self: p.ID == c.self.ID,
			State: c.stateLocked(p.ID), Failures: c.failures[p.ID]})
	}
	return out
}

// Report feeds one exchange with a peer into the health view — a probe,
// or any node-to-node request. A transport error, an injected fault
// (err) or an answer >= 500 counts against the peer, as a failed probe
// would: request traffic notices a dead peer faster than the probe
// period, so the next request skips it instead of re-discovering the
// same timeout. Any other answer — a 404 for a result the peer does not
// hold included — proves the peer up. The local node never degrades.
func (c *Cluster) Report(id string, resp *http.Response, err error) {
	if id == c.self.ID {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || resp.StatusCode >= http.StatusInternalServerError {
		c.failures[id]++
	} else {
		delete(c.failures, id)
	}
}

// Start launches the background prober. Call Stop to halt it.
func (c *Cluster) Start() {
	c.stopped.Add(1)
	go func() {
		defer c.stopped.Done()
		t := time.NewTicker(c.probeEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop halts the prober and waits for it to exit.
func (c *Cluster) Stop() {
	close(c.stop)
	c.stopped.Wait()
}

// probeAll probes every remote peer once, concurrently — a hung peer must
// not delay the verdict on the others past the probe timeout.
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, p := range c.ring.peers {
		if p.ID == c.self.ID {
			continue
		}
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			c.probe(p)
		}(p)
	}
	wg.Wait()
}

// probe asks one peer's /readyz whether it should receive traffic: a
// draining or overloaded node answers 503 and is treated exactly like an
// unreachable one, so routing fails over from it. The cluster.probe
// failpoints (generic and per-peer "cluster.probe.<id>") let the chaos
// suite inject a partition without touching the network.
func (c *Cluster) probe(p Peer) {
	err := fail.Hit("cluster.probe")
	if err == nil {
		err = fail.Hit("cluster.probe." + p.ID)
	}
	var resp *http.Response
	if err == nil {
		if resp, err = c.client.Get(p.Addr + "/readyz"); err == nil {
			resp.Body.Close()
		}
	}
	c.Report(p.ID, resp, err)
}
