// Package apps implements the five graph-analytic applications of the
// paper's evaluation (Table III) on top of the ligra framework: Betweenness
// Centrality (BC), Single-Source Shortest Paths (SSSP, Bellman-Ford),
// PageRank (PR), PageRank-Delta (PRD) and Radii Estimation (Radii).
//
// Every application can run natively (nil-sink tracer) for correctness
// testing, or emit its full logical memory-access stream for the cache
// simulation. PR, PRD and SSSP implement both the merged and split
// Property-Array layouts of the paper's Table IV data-structure
// optimization; BC and Radii have no merging opportunity.
package apps

import (
	"fmt"

	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// Layout selects the Property-Array organization for apps with a merging
// opportunity (Table IV).
type Layout int

// Layouts.
const (
	// LayoutMerged packs the per-vertex fields of multiple Property Arrays
	// into one array of wider elements (the paper's optimization, used as
	// the stronger baseline).
	LayoutMerged Layout = iota
	// LayoutSplit keeps one array per field (original Ligra layout).
	LayoutSplit
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	if l == LayoutMerged {
		return "merged"
	}
	return "split"
}

// App is a traceable graph application.
type App interface {
	// Run executes the algorithm, emitting accesses through t.
	Run(t *ligra.Tracer)
	// ABRArrays returns the Property Arrays whose bounds the framework
	// programs into GRASP's ABRs (at most two per the paper, Sec. IV-C).
	ABRArrays() []*mem.Array
}

// New constructs an application by name over a prepared graph (the
// registry behind every `-app` flag). Weighted graphs are required by the
// apps Weighted names; layout matters only for the apps with a merging
// opportunity.
func New(name string, fg *ligra.Graph, layout Layout) (App, error) {
	switch name {
	case "BC":
		return NewBC(fg, 0), nil
	case "SSSP":
		return NewSSSP(fg, 0, layout), nil
	case "PR":
		return NewPR(fg, DefaultPRIterations, layout), nil
	case "PRD":
		return NewPRD(fg, DefaultPRDIterations, layout), nil
	case "Radii":
		return NewRadii(fg, DefaultRadiiSamples), nil
	case "BFS":
		return NewBFS(fg, 0), nil
	case "CC":
		return NewCC(fg), nil
	case "KCore":
		return NewKCore(fg), nil
	case "TC":
		return NewTC(fg), nil
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Weighted reports whether the named application reads edge weights, so
// its workload must be prepared from the weighted graph: SSSP only.
func Weighted(name string) bool { return name == "SSSP" }

// Names returns the evaluated application names in the paper's order
// (Table III).
func Names() []string { return []string{"BC", "SSSP", "PR", "PRD", "Radii"} }

// ExtendedNames additionally includes the extension workloads built on the
// same framework (BFS, CC, KCore, TC) that are not part of the paper's
// evaluation.
func ExtendedNames() []string { return append(Names(), "BFS", "CC", "KCore", "TC") }
