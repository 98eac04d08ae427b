package sim_test

import (
	"context"
	"fmt"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/mem"
	"grasp/internal/sim"
)

// BenchmarkReplay is the replay rung: one PR recording per (dataset,
// scale) under DBG, at the geometry exp.ScaledConfig gives the scale,
// replayed in the shapes production takes — a lone full-fidelity
// ReplayResultCtx (GRASP), one BroadcastResultsCtx over every registered
// policy, a lone sampled K=16 replay (GRASP) of the recording, and the
// same estimate replayed from the K=16 subsequence (trace.Subsequence, the
// sampled tier's per-group recording) — after the decode alone (a full
// broadcast into one no-op consumer).
//
//	go test ./internal/sim -run '^$' -bench Replay -benchtime 5x -cpu 1
//
// Recording and the subsequence's one build happen once per group,
// outside the timer; ns/access divides a shape's whole time (decode,
// fan-out, every LLC) by the recording's length, so sampled16 and subseq16
// compare directly. lone is the row to watch if a fused single-policy
// decode kernel is ever proposed again (DESIGN.md Sec. 11).
func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"lj", "tw"} {
		for _, scale := range []uint32{16, 4, 1} {
			b.Run(fmt.Sprintf("%s/scale%d", name, scale), func(b *testing.B) {
				ds, err := graph.DatasetByName(name)
				if err != nil {
					b.Fatal(err)
				}
				w, err := sim.PrepareWorkload(ds, "DBG", false, scale)
				if err != nil {
					b.Fatal(err)
				}
				hcfg := exp.ScaledConfig(scale).HCfg
				ctx := context.Background()
				tr, err := sim.RecordTraceNCtx(ctx, w, "PR", apps.LayoutMerged, hcfg, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Release()
				bounds, err := sim.ABRBoundsFor(w, "PR", apps.LayoutMerged)
				if err != nil {
					b.Fatal(err)
				}
				var specs []sim.Spec
				for _, pinfo := range sim.Policies() {
					specs = append(specs, sim.Spec{App: "PR", Layout: apps.LayoutMerged, Policy: pinfo.Name, HCfg: hcfg})
				}
				grasp := sim.Spec{App: "PR", Layout: apps.LayoutMerged, Policy: "GRASP", HCfg: hcfg}
				sub, err := tr.Subsequence(ctx, sim.SampledMask(hcfg.LLC, 16))
				if err != nil {
					b.Fatal(err)
				}
				defer sub.Release()
				noop := []func([]mem.Access){func([]mem.Access) {}}
				shapes := []struct {
					name string
					run  func() error
				}{
					{"decode", func() error { return tr.BroadcastNCtx(ctx, 0, noop) }},
					{"lone", func() error {
						_, err := sim.ReplayResultCtx(ctx, tr, grasp, w.Dataset.Name, bounds)
						return err
					}},
					{fmt.Sprintf("broadcast%d", len(specs)), func() error {
						_, err := sim.BroadcastResultsCtx(ctx, tr, specs, w.Dataset.Name, bounds)
						return err
					}},
					{"sampled16", func() error {
						_, _, err := sim.SampledReplayResultSkipCtx(ctx, tr, grasp, w.Dataset.Name, bounds, 16)
						return err
					}},
					{"subseq16", func() error {
						_, _, err := sim.SampledReplayResultSkipCtx(ctx, sub, grasp, w.Dataset.Name, bounds, 16)
						return err
					}},
				}
				for _, sh := range shapes {
					b.Run(sh.name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if err := sh.run(); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/access")
					})
				}
			})
		}
	}
}
