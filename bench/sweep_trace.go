package main

import (
	"runtime"
	"time"

	"grasp/internal/exp"
)

// corunMixes mirrors exp's co-run mixes (unexported there). If the
// experiment's mixes change and this does not, exp.unexplained_share on
// sweep-corun jumps — that is the alarm.
var corunMixes = [][]string{
	{"BFS", "PR"},
	{"KCore", "TC"},
	{"BFS", "PR", "KCore", "TC"},
	{"BFS", "PR", "KCore", "TC", "BFS", "PR", "KCore", "TC"},
}

// traceSweep is the per-layer run of a sweep workload. It runs the unit
// three ways: once as the untraced run does (for the parallel speed-up),
// once through exp on one core with a span per exp call, and once
// re-enacted from the same datapoints with the layers' own entry points,
// one span per call. On one core self times add, so the unit's wall time
// minus the re-enacted layers minus rendering is what exp.Session itself
// costs (exp.unexplained_share). Kernel rungs are then measured by
// substitution on the re-enactment's recordings.
func traceSweep(e *env, u unit, o *outcome) error {
	t0 := time.Now()
	out, err := u.run(nil, 0)
	if err != nil {
		return err
	}
	wallPar := time.Since(t0).Seconds()
	u.check(o, out)
	runtime.GC()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	unitSpan := e.spans.open("exp.unit", 0, e.workload)
	out, err = u.run(e.spans, unitSpan)
	e.spans.close(unitSpan)
	if err != nil {
		return err
	}
	u.check(o, out)
	wall1 := e.spans.snapshot()[unitSpan-1].seconds()

	// The re-enactment must find the heap as the exp pass found it —
	// grown and paged in by the pass before, holding nothing — or first-touch
	// page faults inflate its record and load spans by half.
	root := e.spans.open("reenact", 0, e.workload)
	var l *ladder
	points := 0
	switch u := u.(type) {
	case *gridUnit:
		if err := u.renderWarm(e.spans); err != nil {
			return err
		}
		u.last = nil
		runtime.GC()
		l = newLadder(e.spans, root, exp.ScaledConfig(gridScale))
		pts := u.points()
		if points, err = l.solo(pts); err != nil {
			return err
		}
		if u.corun {
			if err := l.corun(corunMixes, uniqueStrings(pts, func(p exp.Datapoint) string { return p.DS }),
				uniqueStrings(pts, func(p exp.Datapoint) string { return p.Policy })); err != nil {
				return err
			}
		}
	case *sampledUnit:
		u.last = nil
		runtime.GC()
		l = newLadder(e.spans, root, exp.ScaledConfig(sampledScale))
		points = len(u.points)
		if err := l.sampled(u.points, sampledK); err != nil {
			return err
		}
	}
	e.spans.close(root)
	defer l.release()
	if err := l.rungs(o.m); err != nil {
		return err
	}

	self := selfByName(e.spans.snapshot())
	l.report(o.m, self)
	render := self["exp.render"]
	o.m.set("exp.prefetch_s", self["exp.prefetch"], 1)
	o.m.set("exp.render_s", render, 1)
	o.m.set("exp.wall_1core_s", wall1, 1)
	o.m.set("exp.unexplained_share", (wall1-o.m["exp.ladder_sum_s"].value-render)/wall1, 1)
	o.m.set("exp.parallel_speedup", wall1/wallPar, 1)
	o.m.set("exp.points", float64(points), 1)
	o.m.set("wall_s", wallPar, 1)
	return nil
}

// uniqueStrings returns f over pts without repeats, in first-seen order.
func uniqueStrings(pts []exp.Datapoint, f func(exp.Datapoint) string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range pts {
		if s := f(p); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
