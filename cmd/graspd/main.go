// Command graspd is the simulation daemon: it serves simulation jobs over
// HTTP, content-addresses every job spec, answers repeats from a
// persistent result store, and deduplicates identical in-flight work onto
// one execution (DESIGN.md Sec. 10; endpoint reference in docs/API.md).
//
// Usage:
//
//	graspd                          # listen on :8337, results in ./graspd-data
//	graspd -addr :9000 -workers 4   # bounded pool of 4 simulation workers
//	graspd -data /var/lib/graspd    # persistent result store location
//
// Endpoints: POST /jobs, GET /jobs/{id}, DELETE /jobs/{id},
// GET /results/{hash}, GET /healthz, GET /readyz, GET /metrics. Submit
// jobs with curl or `graspsim -remote`:
//
//	curl -s localhost:8337/jobs -d '{"kind":"single","graph":"lj","app":"PR","policy":"GRASP","scale":64,"wait":true}'
//	graspsim -remote localhost:8337 -graph lj -app PR -policy GRASP -scale 64
//
// Accepted jobs are journaled (fsync'd) in the data directory, so a
// crashed or killed daemon re-enqueues and finishes its backlog on the
// next boot; -journal=false disables this. The queue depth is bounded
// (-max-queue) with 503 + Retry-After load shedding, and -rate/-rate-burst
// add per-client submission rate limiting (429). On SIGINT/SIGTERM the
// daemon drains: /readyz flips to 503 (while /healthz stays 200 — the
// liveness/readiness split), new submissions are rejected, running
// simulations finish (up to -drain-timeout, then they are preempted at
// the next cancellation point), and the process exits.
//
// Several daemons form a fault-tolerant cluster with -node-id and -peers
// (DESIGN.md Sec. 16): every job hash is owned by one node on a
// consistent-hash ring, submissions forward to the owner (failing over to
// its successor when the owner is down), a cold single job is simulated on
// the node that owns its workload, completed results replicate to the
// successor, and GET /results federates misses from replica holders with
// checksum-verified fetches. Every node gets the SAME -peers list:
//
//	graspd -node-id a -peers a=http://host-a:8337,b=http://host-b:8337,c=http://host-c:8337
//
// Without -peers the daemon is the exact single-node service above —
// byte-identical responses, no cluster endpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/jobs"
	"grasp/internal/server"
)

// newFlags builds the graspd flag set, bound to the daemon configuration.
// Factored out of main so the usage golden test renders exactly what
// `graspd -h` prints.
func newFlags() (*flag.FlagSet, *daemonConfig) {
	cfg := &daemonConfig{}
	fs := flag.NewFlagSet("graspd", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":8337", "listen address")
	fs.StringVar(&cfg.dataDir, "data", "graspd-data", "result-store directory (created if missing)")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "simulation worker pool size")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Minute,
		"how long shutdown waits for running simulations to finish")
	fs.Int64Var(&cfg.cacheMB, "cache-mb", 0,
		"cap (MiB) on the LLC recordings and file-backed graphs the daemon retains, all scales together; 0 = built-in default (4096), negative = unlimited")
	fs.DurationVar(&cfg.jobTimeout, "job-timeout", 0,
		"default wall-clock budget per job (jobs may set their own timeout_s); 0 = unlimited")
	fs.IntVar(&cfg.maxQueue, "max-queue", 1024,
		"max queued jobs before submissions are shed with 503; 0 = unbounded")
	fs.Float64Var(&cfg.rate, "rate", 0,
		"per-client POST /jobs rate limit in requests/second (429 beyond it); 0 = unlimited")
	fs.IntVar(&cfg.rateBurst, "rate-burst", 10, "rate-limit token-bucket burst depth")
	fs.BoolVar(&cfg.journal, "journal", true,
		"journal accepted jobs (fsync'd) so a crashed daemon re-enqueues its backlog on reboot")
	fs.StringVar(&cfg.nodeID, "node-id", "",
		"this node's name in -peers (cluster mode; requires -peers)")
	fs.StringVar(&cfg.peers, "peers", "",
		"static cluster member list as id=url,id=url,... (same list on every node); empty = single-node mode")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", time.Second,
		"cluster health-probe period (peers are down after 3 consecutive failures)")
	fs.DurationVar(&cfg.hedge, "hedge", 150*time.Millisecond,
		"latency budget a federated result read gives the first replica before asking the next")
	return fs, cfg
}

func main() {
	fs, cfg := newFlags()
	fs.Parse(os.Args[1:])
	if err := run(*cfg); err != nil {
		fmt.Fprintln(os.Stderr, "graspd:", err)
		os.Exit(1)
	}
}

// parsePeers parses the -peers list ("a=http://host:8337,b=...") into
// cluster members. Bare addresses without a scheme get "http://".
func parsePeers(s string) ([]cluster.Peer, error) {
	var out []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q is not id=url", part)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		out = append(out, cluster.Peer{ID: strings.TrimSpace(id), Addr: strings.TrimRight(addr, "/")})
	}
	return out, nil
}

// daemonConfig carries the parsed flags into run.
type daemonConfig struct {
	addr          string
	dataDir       string
	workers       int
	drainTimeout  time.Duration
	cacheMB       int64
	jobTimeout    time.Duration
	maxQueue      int
	rate          float64
	rateBurst     int
	journal       bool
	nodeID        string
	peers         string
	probeInterval time.Duration
	hedge         time.Duration
}

// cacheBudget converts -cache-mb to the byte budget of the daemon's
// artifact store, refusing a count whose bytes overflow int64: the
// wrapped value would silently turn into the default (0) or "unlimited"
// (negative).
func cacheBudget(mb int64) (int64, error) {
	if mb > math.MaxInt64>>20 || mb < math.MinInt64>>20 {
		return 0, fmt.Errorf("-cache-mb %d overflows a 64-bit byte count (|MiB| at most %d)", mb, int64(math.MaxInt64>>20))
	}
	return mb << 20, nil
}

// run boots the store, journal (recovering the previous process's
// unsettled backlog), manager and HTTP server, then blocks until a
// termination signal starts the drain sequence.
func run(cfg daemonConfig) error {
	budget, err := cacheBudget(cfg.cacheMB)
	if err != nil {
		return err
	}
	store, err := jobs.OpenStore(cfg.dataDir)
	if err != nil {
		return err
	}
	mgr := jobs.NewManager(store, cfg.workers)
	mgr.SetCacheBudget(budget)
	if cfg.jobTimeout > 0 {
		mgr.SetDefaultTimeout(cfg.jobTimeout)
	}
	if cfg.maxQueue > 0 {
		mgr.SetQueueLimit(cfg.maxQueue)
	}
	if cfg.journal {
		jn, pending, err := jobs.OpenJournal(cfg.dataDir)
		if err != nil {
			return err
		}
		defer jn.Close()
		if n := mgr.UseJournal(jn, pending); n > 0 {
			log.Printf("graspd: crash recovery re-enqueued %d journaled job(s)", n)
		}
	}
	opts := server.Options{
		RatePerSec: cfg.rate,
		Burst:      cfg.rateBurst,
		HedgeDelay: cfg.hedge,
	}
	if cfg.peers != "" || cfg.nodeID != "" {
		if cfg.peers == "" || cfg.nodeID == "" {
			return errors.New("cluster mode needs both -node-id and -peers")
		}
		members, err := parsePeers(cfg.peers)
		if err != nil {
			return err
		}
		cl, err := cluster.New(cluster.Config{
			Self:          cfg.nodeID,
			Peers:         members,
			ProbeInterval: cfg.probeInterval,
		})
		if err != nil {
			return err
		}
		opts.Cluster = cl
		defer cl.Stop() // enableCluster starts the prober
		log.Printf("graspd: cluster node %q among %d peers (RF=%d)",
			cfg.nodeID, len(members), cl.ReplicationFactor())
	}
	handler := server.NewWith(mgr, opts)
	srv := &http.Server{Addr: cfg.addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("graspd: listening on %s (%d workers, %d stored results in %s)",
			cfg.addr, cfg.workers, store.Len(), cfg.dataDir)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("graspd: draining (finishing running jobs, up to %v)", cfg.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// Manager first: reject new work and let running simulations finish,
	// then close the listener once in-flight waiters have their answers.
	if err := mgr.Shutdown(drainCtx); err != nil {
		log.Printf("graspd: drain timed out: %v (abandoning running jobs)", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("graspd: drained, bye")
	return nil
}
