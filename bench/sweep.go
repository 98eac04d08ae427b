package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"grasp/internal/exp"
)

// unit is one repetition of a sweep workload: the work a user of the
// simulator waits for, from a fresh exp.Session to all output rendered.
type unit interface {
	// run executes the unit once. With a span log it records one span
	// per call into exp under parent; without, it records nothing.
	run(spans *spanLog, parent int) (any, error)
	// check compares one repetition's output with the repository's own
	// truth, counting every compared operation into o.
	check(o *outcome, out any)
}

// runSweep is the protocol shared by the three sweep workloads: one cold
// repetition reported as set-up, then timed repetitions — each on a fresh
// session, GC between them outside the timer — until -seconds of timed
// work is done, reporting medians.
func runSweep(e *env, u unit) (*outcome, error) {
	o := &outcome{m: metrics{}}
	if e.trace {
		return o, traceSweep(e, u, o)
	}
	minReps := 2
	if e.smoke {
		minReps = 1
	} else {
		out, err := u.run(nil, 0)
		if err != nil {
			return nil, err
		}
		u.check(o, out)
		runtime.GC()
	}
	o.m.set("setup_s", time.Since(e.started).Seconds(), 1)
	var walls, cpus []float64
	for timed := 0.0; len(walls) < minReps || (!e.smoke && timed < float64(e.seconds)); {
		cpu0, t0 := cpuSeconds(), time.Now()
		out, err := u.run(nil, 0)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		if err != nil {
			return nil, err
		}
		u.check(o, out)
		walls, cpus = append(walls, wall), append(cpus, cpu)
		timed += wall
		runtime.GC()
	}
	o.m.set("wall_s", median(walls), len(walls))
	o.m.set("cpu_s", median(cpus), len(cpus))
	return o, nil
}

// gridUnit is a list of registered experiments run the way the golden
// harness runs them: Session.Prefetch over the union of their declared
// datapoints, then every Experiment.Run into a buffer.
type gridUnit struct {
	exps   []exp.Experiment
	golden map[string][]byte
	corun  bool         // the co-run grid: the traced run re-enacts its cells too
	last   *exp.Session // the latest repetition's session, for renderWarm
}

// gridScale is the scale the committed goldens pin.
const gridScale = 64

// newGridUnit selects experiments by id and reads their goldens in place.
func newGridUnit(goldenDir string, keep func(id string) bool) (*gridUnit, error) {
	u := &gridUnit{golden: make(map[string][]byte)}
	for _, e := range exp.All() {
		if !keep(e.ID) {
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, e.ID+".golden"))
		if err != nil {
			return nil, fmt.Errorf("experiment %s has no golden output: %w", e.ID, err)
		}
		u.exps = append(u.exps, e)
		u.golden[e.ID] = want
	}
	if len(u.exps) == 0 {
		return nil, fmt.Errorf("no experiment selected")
	}
	return u, nil
}

func (u *gridUnit) points() []exp.Datapoint {
	var pts []exp.Datapoint
	for _, e := range u.exps {
		if e.Points != nil {
			pts = append(pts, e.Points()...)
		}
	}
	return pts
}

func (u *gridUnit) run(spans *spanLog, parent int) (any, error) {
	s := exp.NewSession(exp.ScaledConfig(gridScale))
	pts := u.points()
	if err := timedOrPlain(spans, "exp.prefetch", parent, "", func() error { return s.Prefetch(pts) }); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(u.exps))
	for _, e := range u.exps {
		var buf bytes.Buffer
		if err := timedOrPlain(spans, "exp.run", parent, e.ID, func() error { return e.Run(s, &buf) }); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out[e.ID] = buf.Bytes()
	}
	u.last = s
	return out, nil
}

// renderWarm runs every body again on the latest repetition's warm
// session: what a body costs when no cache can absorb it (table rendering,
// the OPT study, streaming). The first pass minus this is engine work done
// inside bodies, which the re-enacted ladder accounts for.
func (u *gridUnit) renderWarm(spans *spanLog) error {
	for _, e := range u.exps {
		if _, err := spans.timed("exp.render", 0, e.ID, func() error { return e.Run(u.last, &bytes.Buffer{}) }); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

func (u *gridUnit) check(o *outcome, out any) {
	got := out.(map[string][]byte)
	for _, e := range u.exps {
		o.attempted++
		if !bytes.Equal(got[e.ID], u.golden[e.ID]) {
			o.fail("%s: output differs from its golden", e.ID)
		}
	}
}

// timedOrPlain runs fn inside a span when tracing, bare otherwise.
func timedOrPlain(spans *spanLog, name string, parent int, attr string, fn func() error) error {
	if spans == nil {
		return fn()
	}
	_, err := spans.timed(name, parent, attr, fn)
	return err
}

// soloSmokeIDs is the self-test's slice of the solo grid: cheap bodies
// that still cross load, reorder, record, broadcast and render.
var soloSmokeIDs = map[string]bool{"table1": true, "fig9": true, "ablation-ship": true}

func runSweepSolo(e *env) (*outcome, error) {
	u, err := newGridUnit(e.golden, func(id string) bool {
		if e.smoke {
			return soloSmokeIDs[id]
		}
		// corun has its own workload; fig10a times native execution and
		// has no golden.
		return id != "corun" && id != "fig10a"
	})
	if err != nil {
		return nil, err
	}
	return runSweep(e, u)
}

func runSweepCorun(e *env) (*outcome, error) {
	u, err := newGridUnit(e.golden, func(id string) bool { return id == "corun" })
	if err != nil {
		return nil, err
	}
	u.corun = true
	return runSweep(e, u)
}

// samplePoint is one sampled estimate of the sweep-sampled unit.
type samplePoint struct{ ds, app, policy string }

// sampledUnit issues set-sampled estimates one after another on one
// session, as graspsim's sampled sweep does.
type sampledUnit struct {
	points []samplePoint
	first  []sampledResult // the first repetition's estimates: every later one must equal them
	last   *exp.Session    // the latest repetition's session, for the accuracy check
}

const (
	// sampledScale gives a 16-set LLC: smaller ones select every set and
	// silently become full replay.
	sampledScale = 4
	sampledK     = 4
)

// newSampledUnit builds the estimate list. The grid is fixed (2 high-skew
// datasets x 3 apps x every policy) because a seeded choice of datasets
// and apps changes the amount of work by more than any bound could hold;
// the seed orders the groups and the policies within each (README,
// "Seeds").
func newSampledUnit(seed int64, smoke bool) *sampledUnit {
	datasets, appNames := []string{"lj", "tw"}, []string{"PR", "BFS", "KCore"}
	if smoke {
		datasets, appNames = datasets[:1], appNames[:1]
	}
	rng := rand.New(rand.NewSource(seed))
	type group struct{ ds, app string }
	var groups []group
	for _, ds := range datasets {
		for _, app := range appNames {
			groups = append(groups, group{ds, app})
		}
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	u := &sampledUnit{}
	for _, g := range groups {
		pols := registeredPolicies()
		rng.Shuffle(len(pols), func(i, j int) { pols[i], pols[j] = pols[j], pols[i] })
		for _, p := range pols {
			u.points = append(u.points, samplePoint{g.ds, g.app, p})
		}
	}
	return u
}

func (u *sampledUnit) run(spans *spanLog, parent int) (any, error) {
	s := exp.NewSession(exp.ScaledConfig(sampledScale))
	out := make([]sampledResult, len(u.points))
	for i, p := range u.points {
		err := timedOrPlain(spans, "exp.sampled", parent, p.ds+"/"+p.app+"/"+p.policy, func() error {
			r, err := s.SampledResultCtx(context.Background(), p.ds, "DBG", p.app, layoutMerged, p.policy, sampledK)
			r.AppTime = 0 // wall-clock of the recording run; everything else is deterministic
			out[i] = r
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
	}
	u.last = s
	return out, nil
}

func (u *sampledUnit) check(o *outcome, out any) {
	got := out.([]sampledResult)
	if u.first == nil {
		u.first = got
	}
	for i, p := range u.points {
		o.attempted++
		if got[i] != u.first[i] {
			o.fail("%v: estimate differs from the first repetition's", p)
		}
	}
}

// globalStatePolicies train replacement state shared across sets (PSEL
// duels, signature tables, predictors, epochs) on the sampled sets only: a
// model bias the cross-set CI cannot see. internal/sim's accuracy test
// grants them 2 pp on a 256-set LLC; on this workload's 16-set LLC, with 4
// sets simulated, the bias measured at the parent commit reaches 10 pp
// (README, "First findings"), so the accuracy check covers the policies
// whose state is per set, where the CI is the whole story.
var globalStatePolicies = map[string]bool{"RRIP": true, "DIP": true, "SHiP-MEM": true,
	"SHiP-PC": true, "Hawkeye": true, "Leeway": true, "GRASP-DIP": true}

// verifyAccuracy checks n seed-chosen estimates of the first repetition
// against a full-fidelity replay of the same recording: each must lie
// within its own CI95.
func (u *sampledUnit) verifyAccuracy(o *outcome, seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(u.points)) {
		p, est := u.points[i], u.first[i].Est
		if n == 0 {
			break
		}
		if globalStatePolicies[p.policy] {
			continue
		}
		n--
		full, err := u.last.ResultCtx(context.Background(), p.ds, "DBG", p.app, layoutMerged, p.policy)
		if err != nil {
			return err
		}
		o.attempted++
		exact := full.LLC.MissRatio()
		if diff := math.Abs(est.MissRatio - exact); diff > est.CI95 {
			o.fail("%v: estimate %.4f vs full %.4f: |err| %.4f exceeds CI95 %.4f", p, est.MissRatio, exact, diff, est.CI95)
		}
	}
	return nil
}

func runSweepSampled(e *env) (*outcome, error) {
	u := newSampledUnit(e.seed, e.smoke)
	o, err := runSweep(e, u)
	if err != nil || e.trace {
		return o, err
	}
	return o, u.verifyAccuracy(o, e.seed, 6)
}
