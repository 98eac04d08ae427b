package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/sim"
	"grasp/internal/stats"
	"grasp/internal/stream"
)

// Extra experiments beyond the paper's figures: ablations of GRASP's
// design choices called out in DESIGN.md, the generality of GRASP across
// base replacement schemes, the PC- vs region-signature comparison for
// SHiP, and the Sec. VI streaming-graph staleness study.

// regionScales are the High/Moderate Reuse Region sizes the region
// ablation sweeps, as multiples of the LLC capacity (1 = the paper).
var regionScales = []float64{0.25, 0.5, 1, 2, 4}

// ablationRegionPoints declares the session datapoints of the region-size
// ablation: the RRIP baselines plus the PR traces the scaled-region GRASP
// LLCs replay (a policy plus a declared trace is one recording unit, so
// even run alone the experiment executes PageRank once per dataset).
func ablationRegionPoints() []Datapoint {
	pts := matrixPoints(highSkewNames(), "DBG", []string{"PR"}, nil)
	for _, ds := range highSkewNames() {
		pts = append(pts, Datapoint{DS: ds, App: "PR", Trace: true})
	}
	return pts
}

// regionScaleResults replays the (dataset, PR, DBG) recording into one
// GRASP LLC per region scale — one decode for all of them — and returns
// the metrics an execution-driven run with that region scale would report.
// The region scale is not part of sim.Spec, so these replays are not store
// entries; the recording they share is.
func (s *Session) regionScaleResults(ctx context.Context, dsName string, scales []float64) ([]sim.Result, error) {
	pinfo, err := sim.PolicyByName("GRASP")
	if err != nil {
		return nil, err
	}
	rec, err := s.recording(ctx, group(s.dataset(dsName), "DBG", "PR", apps.LayoutMerged))
	if err != nil {
		return nil, err
	}
	llcs := make([]*cache.Cache, len(scales))
	consumers := make([]func([]mem.Access), len(scales))
	for i, scale := range scales {
		llc, err := sim.NewReplayLLC(s.Cfg.HCfg.LLC, pinfo, rec.bounds, scale)
		if err != nil {
			return nil, err
		}
		llcs[i] = llc
		consumers[i] = func(accs []mem.Access) {
			for _, a := range accs {
				llc.Access(a)
			}
		}
	}
	tr := rec.tr
	start := time.Now()
	err = tr.BroadcastNCtx(ctx, 0, consumers)
	s.phase.replay.Add(int64(time.Since(start)))
	out := make([]sim.Result, len(scales))
	for i, llc := range llcs {
		out[i] = sim.Result{L1: tr.L1Stats(), L2: tr.L2Stats(), LLC: llc.Stats,
			Cycles: cache.MemoryCyclesOf(s.Cfg.HCfg, tr.L1Stats(), tr.L2Stats(), llc.Stats)}
	}
	return out, err
}

// runAblationRegion sweeps the High/Moderate Reuse Region size (the
// paper's design point: exactly LLC-sized regions) on PR over the
// high-skew datasets, one fan-out per dataset over the worker pool.
func runAblationRegion(s *Session, w io.Writer) error {
	datasets := highSkewNames()
	cells := make([][]sim.Result, len(datasets))
	errs := make([]error, len(datasets))
	forEachParallel(len(datasets), func(i int) {
		cells[i], errs[i] = s.regionScaleResults(context.Background(), datasets[i], regionScales)
	})
	t := stats.NewTable("Dataset", "0.25x", "0.5x", "1x (paper)", "2x", "4x")
	for di, dsName := range datasets {
		if errs[di] != nil {
			return errs[di]
		}
		base, err := s.Result(dsName, "DBG", "PR", apps.LayoutMerged, "RRIP")
		if err != nil {
			return err
		}
		row := []string{dsName}
		for _, r := range cells[di] {
			row = append(row, fmt.Sprintf("%.1f", r.MissReductionPctOver(base)))
		}
		t.AddRow(row...)
	}
	if _, err := fmt.Fprintln(w, "GRASP miss reduction (%) over RRIP vs High-Reuse-Region size (PR)"); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

// basePairs are the (GRASP variant, base scheme) pairs of the Sec. III-C
// generality ablation.
var basePairs = [][2]string{
	{"GRASP", "RRIP"},
	{"GRASP-LRU", "LRU"},
	{"GRASP-PLRU", "PLRU"},
	{"GRASP-DIP", "DIP"},
}

// ablationBasesPoints declares every variant and base scheme on PR over
// the high-skew datasets.
func ablationBasesPoints() []Datapoint {
	schemes := []string{}
	for _, p := range basePairs {
		schemes = append(schemes, p[0], p[1])
	}
	return matrixPoints(highSkewNames(), "DBG", []string{"PR"}, schemes)
}

// runAblationBases evaluates GRASP over its alternative base schemes
// (Sec. III-C: "not fundamentally dependent on RRIP"), reporting speed-up
// of each GRASP variant over ITS OWN base scheme.
func runAblationBases(s *Session, w io.Writer) error {
	pairs := basePairs
	t := stats.NewTable("Dataset", "over RRIP", "over LRU", "over PLRU", "over DIP")
	agg := make(map[string][]float64)
	for _, dsName := range highSkewNames() {
		row := []string{dsName}
		for _, p := range pairs {
			g, err := s.Result(dsName, "DBG", "PR", apps.LayoutMerged, p[0])
			if err != nil {
				return err
			}
			b, err := s.Result(dsName, "DBG", "PR", apps.LayoutMerged, p[1])
			if err != nil {
				return err
			}
			sp := g.SpeedupPctOver(b)
			agg[p[0]] = append(agg[p[0]], sp)
			row = append(row, fmt.Sprintf("%.1f", sp))
		}
		t.AddRow(row...)
	}
	gm := []string{"GM"}
	for _, p := range pairs {
		gm = append(gm, fmt.Sprintf("%.1f", stats.GeoMeanSpeedupPct(agg[p[0]])))
	}
	t.AddRow(gm...)
	if _, err := fmt.Fprintln(w, "GRASP speed-up (%) over each base scheme (PR, high-skew)"); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

// runStreaming regenerates the Sec. VI staleness argument: prefix
// coverage of the DBG hot region under an update stream, stale vs freshly
// reordered, for a drifting tw-like graph.
func runStreaming(s *Session, w io.Writer) error {
	wl, err := s.Workload("tw", "DBG", true)
	if err != nil {
		return err
	}
	g := wl.Graph
	// Prefix = the vertices whose merged property elements fill one LLC
	// (the High Reuse Region).
	prefix := uint32(s.Cfg.HCfg.LLC.SizeBytes / 16)
	if prefix > g.NumVertices() {
		prefix = g.NumVertices()
	}
	batchSize := int(g.NumEdges() / 100) // 1% of edges per batch
	points := stream.StalenessStudy(g, prefix, 8, batchSize, 0.7, 1.1, 99)
	t := stats.NewTable("Batch (1% edges each)", "Stale coverage", "Fresh coverage", "Retention")
	for _, p := range points {
		retention := p.StaleCoverage / p.FreshCoverage * 100
		t.AddRow(fmt.Sprintf("%d", p.Batch),
			fmt.Sprintf("%.3f", p.StaleCoverage),
			fmt.Sprintf("%.3f", p.FreshCoverage),
			fmt.Sprintf("%.1f%%", retention))
	}
	if _, err := fmt.Fprintln(w, "Hot-prefix edge coverage under a drifting update stream (Sec. VI)"); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, t)
	return err
}
