// Command graspsim regenerates the paper's tables and figures, runs
// single simulations on arbitrary ingested graphs, and can offload either
// to a graspd daemon (-remote) that caches results across callers.
//
// Run `graspsim -h` for the flag reference and an examples section; the
// experiment ids follow the paper (table1, fig5, ... — `-list` shows all;
// DESIGN.md Sec. 4 is the index).
//
// Local experiments run through the concurrent engine: the union of their
// datapoints is simulated on a GOMAXPROCS worker pool, deduplicated, and
// then each experiment goes through exp.Run, the one runner graspd's
// experiment jobs use too, rendering in the order given.
//
// With -graph, graspsim instead runs one (graph, reorder, app, policy)
// simulation: the argument is a dataset name or a path to a SNAP-style
// edge list (.txt/.el/.wel), a Matrix Market file (.mtx) or a GCSR binary
// (.gcsr); the file's first bytes pick the parser, and nothing is written.
//
// With -remote host:port, both modes become daemon requests: the job is
// content-addressed by the server, repeat runs are answered from its
// result store without re-simulating, and identical concurrent requests
// share one execution (see docs/API.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"grasp/internal/apps"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/jobs"
	"grasp/internal/server"
	"grasp/internal/sim"
	"grasp/internal/stats"
	"grasp/internal/trace"
)

// options carries every graspsim flag; newFlags binds them so main and
// the usage golden test construct the identical flag set.
type options struct {
	exp        string
	scale      uint
	list       bool
	graphSpec  string
	app        string
	policy     string
	reorder    string
	arrays     bool
	fidelity   string
	sampleK    uint
	corun      string
	corunRatio string
	remote     string
	priority   int
	timeout    time.Duration
	cpuprofile string
	memprofile string
}

// usageExamples is the examples section of `graspsim -h`, locked by the
// golden test in usage_test.go (refresh with `go test ./cmd/graspsim
// -run Usage -update` after editing).
const usageExamples = `Examples:
  graspsim -exp fig5                   reproduce one artifact at full scale
  graspsim -exp all -scale 8           everything at 1/8 scale
  graspsim -list                       list experiment ids

  graspsim -graph tw -app PR -policy GRASP          one simulation, paper dataset
  graspsim -graph web-Google.txt -app KCore -policy GRASP
                                       one simulation on an ingested graph file
                                       (.txt/.el/.wel/.mtx/.gcsr; its content picks
                                       the parser, nothing is written beside it)

  graspsim -graph uni -app Radii -policy PIN-100 -arrays
                                       also attribute LLC accesses and misses to the
                                       data structure they touch (paper Sec. II-C)

  graspsim -remote localhost:8337 -graph lj -app PR -policy GRASP -scale 64
                                       run via a graspd daemon: repeat runs are
                                       served from its result store
  graspsim -remote localhost:8337 -exp fig2 -scale 64
                                       experiments work remotely too

  graspsim -graph lj -app PR -corun BFS,TC -policy GRASP
                                       co-run: PR, BFS and TC interleaved into one
                                       shared LLC; prints per-app miss attribution,
                                       weighted speedup and unfairness
  graspsim -graph lj -app PR -corun PR -corun-ratio 2,1
                                       two PR instances at a 2:1 interleave ratio

  graspsim -graph tw -app PR -policy GRASP -fidelity sampled -sample-k 16
                                       fast tier: simulate 1/16 of the LLC sets,
                                       print the estimated miss ratio with a 95% CI
  graspsim -exp fig2 -scale 16 -fidelity sampled
                                       sampled sweep of an experiment's datapoints
                                       (estimates with error bars, not paper numbers)

  graspsim -exp fig5 -scale 8 -cpuprofile cpu.pprof -memprofile mem.pprof
                                       profile the engine (go tool pprof cpu.pprof)
`

// newFlags builds the graspsim flag set. Factored out of main so the
// usage golden test renders exactly what `graspsim -h` prints.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("graspsim", flag.ExitOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment id, comma-separated list, or 'all'")
	fs.UintVar(&o.scale, "scale", 1, "dataset scale divisor (1 = full reproduction scale)")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&o.graphSpec, "graph", "",
		"run ONE simulation on this dataset name or graph file (.txt/.el/.wel/.mtx/.gcsr) instead of experiments")
	fs.StringVar(&o.app, "app", "PR",
		fmt.Sprintf("-graph mode: application, one of %v", apps.ExtendedNames()))
	fs.StringVar(&o.policy, "policy", "GRASP", "-graph mode: LLC policy (see sim.Policies)")
	fs.StringVar(&o.reorder, "reorder", "DBG", "-graph mode: reordering technique")
	fs.BoolVar(&o.arrays, "arrays", false,
		"-graph mode: also print the per-array LLC breakdown (local, full fidelity, no -corun)")
	fs.StringVar(&o.fidelity, "fidelity", "full",
		"simulation tier: 'full' (exact) or 'sampled' (simulate 1/K of the LLC sets, report estimates with a 95% CI)")
	fs.UintVar(&o.sampleK, "sample-k", 0,
		"sampled fidelity: set-sampling divisor K, a power of two (0 = default 16); 1 is exact")
	fs.StringVar(&o.corun, "corun", "",
		"-graph mode: co-run -app with these comma-separated apps in one shared LLC and report per-app interference metrics")
	fs.StringVar(&o.corunRatio, "corun-ratio", "",
		"-corun mode: comma-separated round-robin weights, one per app incl. -app itself (default uniform)")
	fs.StringVar(&o.remote, "remote", "",
		"send the work to the graspd daemon at this address (host:port or URL) instead of simulating locally; a comma-separated list names a cluster and rotates to the next node on 5xx or transport errors")
	fs.IntVar(&o.priority, "priority", 0, "-remote mode: job priority (higher runs first)")
	fs.DurationVar(&o.timeout, "timeout", 0,
		"-remote mode: per-job wall-clock budget (e.g. 10m); the daemon cancels the job beyond it. 0 = server default")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "",
		"write a CPU profile of the run to this `file` (inspect with go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "",
		"write an end-of-run heap profile to this `file` (inspect with go tool pprof)")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage: graspsim [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(w, "\n%s", usageExamples)
	}
	return fs, o
}

func main() {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])
	// The profiling flags need every exit path to flush their files, so
	// the body runs in its own frame (os.Exit skips defers).
	os.Exit(realMain(o))
}

// startProfiles honors -cpuprofile/-memprofile; the returned stop function
// (never nil) flushes both and must run before the process exits.
func startProfiles(o *options) (stop func(), err error) {
	stop = func() {}
	var cpuFile *os.File
	if o.cpuprofile != "" {
		cpuFile, err = os.Create(o.cpuprofile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return stop, err
		}
	}
	stop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "graspsim: CPU profile written to %s\n", o.cpuprofile)
		}
		if o.memprofile != "" {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "graspsim:", err)
				return
			}
			runtime.GC() // materialize the end-of-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "graspsim:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "graspsim: heap profile written to %s\n", o.memprofile)
		}
	}
	return stop, nil
}

// realMain is the flag-parsed body of the command; its return value is the
// process exit code.
func realMain(o *options) int {
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "graspsim:", err)
		return 1
	}
	return 0
}

// run dispatches on the mode flags: -list, one -graph job, or -exp
// experiments remotely, sampled, or through the local engine.
func run(o *options) error {
	// -list is always local and instant; honoring it before -remote keeps
	// `graspsim -remote host -list` from submitting every experiment.
	if o.list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}

	// A -graph run is one jobs.Spec, here or on a daemon, and
	// Spec.Canonicalize its one validator; an -exp run shares the tier flags.
	var spec jobs.Spec
	var err error
	if o.graphSpec != "" {
		spec, err = singleSpec(o)
	} else {
		err = sweepTier(o)
	}
	if err != nil {
		return err
	}

	stopProfiles, err := startProfiles(o)
	if err != nil {
		return err
	}
	defer stopProfiles()

	switch {
	case o.graphSpec != "":
		return runSingle(o, spec, os.Stdout)
	case o.remote != "":
		return runRemote(o, os.Stdout)
	case o.fidelity == jobs.FidelitySampled:
		return runSampledSweep(o, os.Stdout)
	}

	cfg := configFor(uint32(o.scale), nil)
	fmt.Printf("# GRASP reproduction — scale 1/%d, LLC %dKB, L1 %dKB, L2 %dKB\n\n",
		o.scale, cfg.HCfg.LLC.SizeBytes>>10, cfg.HCfg.L1.SizeBytes>>10, cfg.HCfg.L2.SizeBytes>>10)
	session := exp.NewSession(cfg)

	exps, err := selectExperiments(o.exp)
	if err != nil {
		return err
	}

	// Prefetch the union of the experiments' datapoints once, so cells
	// shared between experiments (fig5/fig6, fig11/table7) are simulated
	// once and the pool is busy across experiment boundaries. Its error is
	// dropped: the store keeps each failure, and the Run of the experiment
	// that declared the failing datapoint reports it under that one's id.
	var points []exp.Datapoint
	for _, e := range exps {
		if e.Points != nil {
			points = append(points, e.Points()...)
		}
	}
	start := time.Now()
	_ = session.Prefetch(points)
	prefetch := time.Since(start)
	var render time.Duration
	for _, e := range exps {
		fmt.Printf("## %s — %s\n\n", e.ID, e.Title)
		start := time.Now()
		if err := exp.Run(context.Background(), session, e, os.Stdout, nil); err != nil {
			return err
		}
		elapsed := time.Since(start)
		render += elapsed
		fmt.Printf("(%s in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	// Where the sweep's time went: the parallel fan-out's wall-clock, the
	// sum of the experiment bodies, and the engine's per-phase split.
	// Engine phases are worker-cumulative: on a multi-core run they can sum
	// past the prefetch wall-clock.
	phases := session.PhaseSeconds()
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "graspsim: prefetch %.2fs, render %.2fs; engine phases:", prefetch.Seconds(), render.Seconds())
	for _, name := range names {
		fmt.Fprintf(os.Stderr, " %s %.2fs", name, phases[name])
	}
	fmt.Fprintln(os.Stderr)
	return nil
}

// configFor returns the engine configuration for a -scale divisor — the
// daemon's own scale mapping. Handed a file-backed dataset it also notes on
// stderr what scaling cannot shrink.
func configFor(scale uint32, ds *graph.Dataset) exp.Config {
	if scale > 1 && ds != nil && ds.Kind == graph.KindFile {
		fmt.Fprintf(os.Stderr,
			"graspsim: note: -scale %d shrinks only the cache hierarchy; the file graph always loads at full size\n", scale)
	}
	return jobs.Spec{Scale: scale}.Config()
}

// selectExperiments resolves the -exp flag value to experiment structs.
func selectExperiments(spec string) ([]exp.Experiment, error) {
	if spec == "all" {
		return exp.All(), nil
	}
	var out []exp.Experiment
	for _, id := range strings.Split(spec, ",") {
		e, err := exp.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// runRemote sends the selected experiments to a graspd daemon and renders
// each one's stored body.
func runRemote(o *options, w io.Writer) error {
	client := server.NewClient(o.remote)
	timeoutS := o.timeout.Seconds()
	if o.fidelity == jobs.FidelitySampled {
		return fmt.Errorf("-fidelity sampled applies to single runs on the daemon (-graph); experiment sweeps sample locally only")
	}
	exps, err := selectExperiments(o.exp)
	if err != nil {
		return err
	}
	// Submit everything fire-and-forget first so the daemon's worker pool
	// runs the experiments concurrently (its session dedups shared
	// datapoints), then collect the outcomes in paper order — RunSync on
	// an in-flight job joins it rather than resubmitting.
	for _, e := range exps {
		spec := jobs.Spec{Kind: jobs.KindExperiment, Exp: e.ID, Scale: uint32(o.scale), TimeoutS: timeoutS}
		if _, err := client.Submit(spec, o.priority); err != nil {
			return err
		}
	}
	for _, e := range exps {
		spec := jobs.Spec{Kind: jobs.KindExperiment, Exp: e.ID, Scale: uint32(o.scale), TimeoutS: timeoutS}
		outcome, err := client.RunSync(spec, o.priority)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprint(w, outcome.Output)
		fmt.Fprintf(w, "(%s simulated in %.2fs, finished %s)\n\n",
			e.ID, outcome.Elapsed, outcome.Finished.Format(time.RFC3339))
	}
	return nil
}

// singleSpec builds the job a -graph run asks for — one jobs.Spec whether
// it then runs here or on a daemon — and validates it exactly as graspd
// would, before any graph is resolved.
func singleSpec(o *options) (jobs.Spec, error) {
	scale, k, err := specUints(o)
	spec := jobs.Spec{Kind: jobs.KindSingle, Graph: o.graphSpec, App: o.app, Policy: o.policy,
		Reorder: o.reorder, Scale: scale, Fidelity: o.fidelity, SampleK: k, TimeoutS: o.timeout.Seconds()}
	if err != nil {
		return spec, err
	}
	if spec.CorunApps, spec.CorunRatio, err = parseCorun(o); err != nil {
		return spec, err
	}
	return spec, spec.Canonicalize()
}

// sweepTier checks the flags of an -exp run: the -graph-only ones are
// refused, and -scale/-fidelity/-sample-k mean what they mean on a -graph
// run, so the same validator checks them and fills the default divisor.
func sweepTier(o *options) error {
	if o.corun != "" || o.corunRatio != "" || o.arrays {
		return fmt.Errorf("-corun, -corun-ratio and -arrays require -graph")
	}
	scale, k, err := specUints(o)
	if err != nil {
		return err
	}
	tier := jobs.Spec{Kind: jobs.KindSingle, Graph: "lj", Scale: scale, Fidelity: o.fidelity, SampleK: k}
	if err := tier.Canonicalize(); err != nil {
		return err
	}
	o.sampleK = uint(tier.SampleK)
	return nil
}

// specUints narrows -scale and -sample-k to a jobs.Spec's uint32 fields,
// refusing a value past math.MaxUint32 instead of truncating it.
func specUints(o *options) (scale, sampleK uint32, err error) {
	if o.scale > math.MaxUint32 {
		return 0, 0, fmt.Errorf("-scale %d exceeds %d", o.scale, uint32(math.MaxUint32))
	}
	if o.sampleK > math.MaxUint32 {
		return 0, 0, fmt.Errorf("-sample-k %d exceeds %d", o.sampleK, uint32(math.MaxUint32))
	}
	return uint32(o.scale), uint32(o.sampleK), nil
}

// runSingle runs one -graph job — on ingested real-world datasets as much
// as on the paper's synthetic ones — and renders its outcome. With -remote
// a daemon runs it; locally jobs.Simulate, the daemon's own dispatch, runs
// every tier on a fresh session, whose recording -arrays then re-reads.
func runSingle(o *options, spec jobs.Spec, w io.Writer) error {
	if o.arrays && (o.remote != "" || spec.Fidelity == jobs.FidelitySampled || len(spec.CorunApps) > 0) {
		return fmt.Errorf("-arrays applies to a local full-fidelity -graph run without -corun")
	}
	if o.remote != "" {
		outcome, err := server.NewClient(o.remote).RunSync(spec, o.priority)
		if err != nil {
			return err
		}
		return printOutcome(w, spec, outcome, true, nil)
	}
	ds, err := graph.Resolve(spec.Graph)
	if err != nil {
		return err
	}
	ctx, session := context.Background(), exp.NewSession(configFor(spec.Scale, &ds))
	outcome, err := jobs.Simulate(ctx, session, spec, nil)
	if err != nil {
		return err
	}
	if outcome.Single == nil {
		return printOutcome(w, spec, outcome, false, nil)
	}
	wl, err := session.Workload(spec.Graph, spec.Reorder, apps.Weighted(spec.App))
	if err != nil {
		return err
	}
	if err := printOutcome(w, spec, outcome, false, wl.Graph); err != nil || !o.arrays {
		return err
	}
	tally, err := tallyArrays(ctx, session, spec, wl)
	if err != nil {
		return err
	}
	tally.print(w, *outcome.Single)
	return nil
}

// printOutcome renders a -graph run's outcome, whichever tier and whichever
// process produced it: a header naming the job (remote answers add where
// they came from and what they cost the daemon), then the tier's metrics.
// g, the workload's graph on a local full-fidelity run, adds its summary.
func printOutcome(w io.Writer, spec jobs.Spec, o *jobs.Outcome, remote bool, g *graph.CSR) error {
	note := func(tier string) string {
		if remote {
			tier = strings.TrimSpace("remote "+tier) + fmt.Sprintf(", %.2fs simulated", o.Elapsed)
		}
		if tier == "" {
			return ""
		}
		return " (" + tier + ")"
	}
	switch {
	case o.Corun != nil:
		fmt.Fprintf(w, "co-run: %s on %s reorder=%s policy=%s%s\n",
			strings.Join(append([]string{spec.App}, spec.CorunApps...), "+"),
			o.Corun.Workload, spec.Reorder, spec.Policy, note(""))
		printCorunMetrics(w, *o.Corun)
	case o.Sampled != nil:
		fmt.Fprintf(w, "workload: %s app=%s reorder=%s policy=%s%s\n", o.Sampled.Workload,
			spec.App, spec.Reorder, spec.Policy, note(fmt.Sprintf("sampled 1/%d", o.Sampled.SampleK)))
		printSampledMetrics(w, *o.Sampled)
		// This process's decodes: none behind a remote answer.
		if skip := trace.SkipStats(); skip.ChunksDecoded > 0 {
			fmt.Fprintf(w, "codec prune: %.1f%% of recorded accesses never materialized (%d chunks decoded)\n",
				100*skip.SkipRatio(), skip.ChunksDecoded)
		}
	case o.Single != nil:
		fmt.Fprintf(w, "workload: %s app=%s reorder=%s policy=%s%s\n", o.Single.Workload,
			spec.App, spec.Reorder, spec.Policy, note(""))
		if g != nil {
			fmt.Fprintf(w, "graph:    %v\n", g)
		}
		printMetrics(w, *o.Single)
	default:
		return fmt.Errorf("daemon returned no single-run metrics for %s", o.Hash)
	}
	return nil
}

// runSampledSweep is -exp mode on the fast tier: every plain result
// datapoint of the selected experiments is estimated from a set-sampled
// replay and printed with its error bars (OPT study cells, region-scaled
// results and co-run cells have no sampled tier).
func runSampledSweep(o *options, w io.Writer) error {
	exps, err := selectExperiments(o.exp)
	if err != nil {
		return err
	}
	cfg := configFor(uint32(o.scale), nil)
	session := exp.NewSession(cfg)
	k := uint32(o.sampleK)
	fmt.Fprintf(w, "# GRASP sampled fast tier — scale 1/%d, ~1/%d of %d LLC sets per estimate\n\n",
		o.scale, k, cfg.HCfg.LLC.Sets())
	for _, e := range exps {
		var points []exp.Datapoint
		if e.Points != nil {
			for _, p := range e.Points() {
				if p.Plain() {
					points = append(points, p)
				}
			}
		}
		if len(points) == 0 {
			fmt.Fprintf(w, "## %s — %s\n\n(declares no result datapoints; run it at full fidelity)\n\n", e.ID, e.Title)
			continue
		}
		expStart := time.Now()
		fmt.Fprintf(w, "## %s — %s (sampled estimates)\n\n", e.ID, e.Title)
		t := stats.NewTable("Dataset", "Reorder", "App", "Policy", "EstMiss%", "±CI95", "Sets")
		for _, p := range points {
			r, err := session.SampledResultCtx(context.Background(), p.DS, p.Reorder, p.App, p.Layout, p.Policy, k)
			if err != nil {
				return err
			}
			t.AddRow(p.DS, p.Reorder, p.App, p.Policy,
				fmt.Sprintf("%.2f", 100*r.Est.MissRatio),
				fmt.Sprintf("%.2f", 100*r.Est.CI95),
				fmt.Sprintf("%d/%d", r.Est.SampledSets, r.Est.TotalSets))
		}
		fmt.Fprintln(w, t)
		fmt.Fprintf(w, "(%s sampled in %v)\n\n", e.ID, time.Since(expStart).Round(time.Millisecond))
	}
	return nil
}

// parseCorun resolves the -corun/-corun-ratio flags into the co-runner
// list (excluding -app itself, matching the jobs wire shape) and the
// weights of the whole mix (nil = uniform).
func parseCorun(o *options) (corunApps []string, ratio []int, err error) {
	if o.corun == "" {
		if o.corunRatio != "" {
			return nil, nil, fmt.Errorf("-corun-ratio requires -corun")
		}
		return nil, nil, nil
	}
	for _, a := range strings.Split(o.corun, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, nil, fmt.Errorf("-corun has an empty app name")
		}
		corunApps = append(corunApps, a)
	}
	if o.corunRatio == "" {
		return corunApps, nil, nil
	}
	for _, s := range strings.Split(o.corunRatio, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 1 {
			return nil, nil, fmt.Errorf("-corun-ratio weight %q: want an integer >= 1", s)
		}
		ratio = append(ratio, w)
	}
	if len(ratio) != 1+len(corunApps) {
		return nil, nil, fmt.Errorf("-corun-ratio has %d weights for %d apps (include -app itself)",
			len(ratio), 1+len(corunApps))
	}
	return corunApps, ratio, nil
}

// printCorunMetrics renders one co-run: per-app attribution rows against
// their solo baselines, the shared-LLC totals, and the mix's fairness
// summary.
func printCorunMetrics(w io.Writer, r sim.CorunResult) {
	t := stats.NewTable("App", "Wt", "LLCAcc", "LLCMiss", "Miss%", "SoloMiss%", "Delta", "Slowdown")
	for _, a := range r.Apps {
		t.AddRow(a.App, fmt.Sprint(a.Weight),
			fmt.Sprint(a.LLC.Accesses()), fmt.Sprint(a.LLC.Misses),
			fmt.Sprintf("%.2f", 100*a.LLC.MissRatio()),
			fmt.Sprintf("%.2f", 100*a.Solo.LLC.MissRatio()),
			fmt.Sprintf("%+.2f", 100*a.MissRateDelta()),
			fmt.Sprintf("%.3f", a.Slowdown))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "shared LLC: %d accesses, %d misses (%.1f%%), %d bypasses, %d writebacks\n",
		r.LLC.Accesses(), r.LLC.Misses, 100*r.LLC.MissRatio(), r.LLC.Bypasses, r.LLC.Writebacks)
	fmt.Fprintf(w, "weighted speedup: %.3f (ideal %d)   unfairness: %.3f\n",
		r.WeightedSpeedup, len(r.Apps), r.Unfairness)
}

// printSampledMetrics renders a set-sampled estimate: exact upper levels,
// observed sampled-set counts, and the extrapolated LLC miss metrics with
// their 95% confidence interval.
func printSampledMetrics(w io.Writer, r sim.SampledResult) {
	fmt.Fprintf(w, "L1:  %9d accesses, %9d misses (%.1f%%)\n",
		r.L1.Accesses(), r.L1.Misses, 100*r.L1.MissRatio())
	fmt.Fprintf(w, "L2:  %9d accesses, %9d misses (%.1f%%)\n",
		r.L2.Accesses(), r.L2.Misses, 100*r.L2.MissRatio())
	fmt.Fprintf(w, "LLC: sampled %d/%d sets: %d accesses, %d misses observed\n",
		r.Est.SampledSets, r.Est.TotalSets, r.Est.SampledAccesses, r.Est.SampledMisses)
	fmt.Fprintf(w, "LLC estimate: %.2f%% ± %.2f%% miss ratio (95%% CI), ~%.0f of %d accesses\n",
		100*r.Est.MissRatio, 100*r.Est.CI95, r.Est.EstMisses, r.Est.TotalAccesses)
	fmt.Fprintf(w, "estimated memory time: %.0f\n", r.EstCycles)
}

// printMetrics renders the per-level cache metrics of one simulation.
func printMetrics(w io.Writer, r sim.Result) {
	fmt.Fprintf(w, "L1:  %9d accesses, %9d misses (%.1f%%)\n",
		r.L1.Accesses(), r.L1.Misses, 100*r.L1.MissRatio())
	fmt.Fprintf(w, "L2:  %9d accesses, %9d misses (%.1f%%)\n",
		r.L2.Accesses(), r.L2.Misses, 100*r.L2.MissRatio())
	fmt.Fprintf(w, "LLC: %9d accesses, %9d misses (%.1f%%), %d bypasses, %d writebacks\n",
		r.LLC.Accesses(), r.LLC.Misses, 100*r.LLC.MissRatio(), r.LLC.Bypasses, r.LLC.Writebacks)
	fmt.Fprintf(w, "modeled memory time: %.0f\n", r.Cycles)
}
