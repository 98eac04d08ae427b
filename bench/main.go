// Command bench is the repository's one benchmark: five named workloads
// that between them exercise every layer of the stack, measured only from
// outside — end-to-end numbers through exp.Session / Experiment.Run and
// through HTTP against a stack wired as cmd/graspd wires it, per-layer
// numbers by timing calls into each layer's public entry points in a
// separate traced run. BENCHMARK.json at the repository root names the
// command, workloads and metrics; README.md explains each.
//
//	sh bench/run.sh --workload sweep-solo --seed 1 --seconds 8 --trace 0
//	sh bench/run.sh --workload serve-single --repeat 5
//
// One process per run. stdout carries a host line, a metric table for
// humans and, last, one JSON object for the driver; the std logger (jobs
// and server log through it) goes to a file under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// defaultSeed is the seed of every committed table in README.md.
// BENCHMARK.json's schema has no field for it, so it lives here.
const defaultSeed = 1

// options are the parsed flags of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	golden   string
}

// env is what a workload runs with: its options, the process start (for
// setup_s), a private scratch directory inside the checkout and the span
// log of a traced run.
type env struct {
	options
	started time.Time
	scratch string
	spans   *spanLog
}

// outcome is what a workload hands back: operations attempted and failed
// (a wrong answer is a failure), why they failed, and its metrics.
type outcome struct {
	attempted, failed int
	notes             []string
	m                 metrics
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 10 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// workload is one named set of inputs; BENCHMARK.json carries the why.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"sweep-solo", runSweepSolo},
	{"sweep-corun", runSweepCorun},
	{"sweep-sampled", runSweepSampled},
	{"serve-single", runServeSingle},
	{"serve-cluster3", runServeCluster3},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its inputs and outputs as parameters, so the self-test
// can drive it in-process.
func run(args []string, stdout io.Writer) int {
	started := time.Now()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var traceFlag, repeat int
	var seedStep int64
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "the only source of variation between runs of one workload")
	fs.IntVar(&o.seconds, "seconds", 8, "seconds of timed work: sweeps repeat the unit until it is reached, serve workloads size their schedule by it")
	fs.IntVar(&traceFlag, "trace", 0, "1: per-layer run (spans kept in memory, written at exit); 0: end-to-end run")
	fs.BoolVar(&o.smoke, "smoke", false, "self-test size: one short rep / a ~200-request schedule")
	fs.StringVar(&o.golden, "golden", "", "directory of golden experiment outputs (default: internal/exp/testdata/golden, read in place)")
	fs.IntVar(&repeat, "repeat", 0, "run the workload N times, one process each, and print median, quartiles and max-min per metric")
	fs.Int64Var(&seedStep, "seed-step", 0, "with -repeat: run i uses seed + i*step (0 = same-seed A/A runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of %v) and -seconds >= 1\n", workloadNames())
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if o.golden == "" {
		o.golden = filepath.Join(root, "internal", "exp", "testdata", "golden")
	}
	if repeat > 0 {
		return runRepeat(stdout, o, repeat, seedStep)
	}

	// Fixed parallelism, recorded with the result: the numbers in README
	// are for min(2, NumCPU). A traced sweep drops to 1 so self times add.
	procs := min(2, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	// This run's private directory: the log, result stores and journals
	// live there and are removed at exit.
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(build, "run-"+o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	logf, err := os.Create(filepath.Join(scratch, "log.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer logf.Close()
	log.SetOutput(logf)
	defer log.SetOutput(os.Stderr)

	e := &env{options: o, started: started, scratch: scratch}
	if o.trace {
		e.spans = newSpanLog()
	}
	fmt.Fprintf(stdout, "host: %s NumCPU=%d GOMAXPROCS=%d commit=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), procs, commit(), o.workload, o.seed, o.seconds, traceFlag)
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "bench: workload attempted no operation")
		return 1
	}
	out.m.set("peak_rss_mb", peakRSSMB(), 1)
	out.m.set("fail_share", float64(out.failed)/float64(out.attempted), out.attempted)
	if o.trace {
		path := filepath.Join(build, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := e.spans.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", e.spans.len(), path)
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "FAILED:", n)
	}
	// The untraced run prints the per-layer table too: the request-class
	// latencies in it are measured with tracing off, everything a traced
	// run alone can measure reads 0 there.
	fmt.Fprint(stdout, out.m.table(endToEnd))
	fmt.Fprint(stdout, out.m.table(perLayer))
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := jsonResult{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.Name] = jsonMetric{Value: out.m[d.Name].value, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// jsonResult is the driver's result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// repoRoot finds the checkout root — the nearest ancestor of the working
// directory holding BENCHMARK.json — so the benchmark works from the root,
// from bench/ (where run.sh starts it) and from a test's package directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in any parent of the working directory")
		}
		dir = parent
	}
}

// commit returns the VCS revision stamped into the binary, if any: the
// driver's checkout is not a git repository, so "unknown" is normal there.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
