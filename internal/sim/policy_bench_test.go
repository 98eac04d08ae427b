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

// policyStream is one decoded LLC access stream with the ABR bounds its
// recording programmed, so a hint-consuming policy classifies it as a
// replay would.
type policyStream struct {
	accs []mem.Access
	abrs [][2]uint64
}

// BenchmarkPolicyAccess is the LLC kernel's per-policy breakdown: every
// registered policy replays the same pre-decoded streams (lj, tw and kr
// under PR, KCore, TC and BFS) through cache.(*Cache).Access, at the LLC
// geometry exp.ScaledConfig gives each scale.
//
//	go test ./internal/sim -run '^$' -bench PolicyAccess -benchtime 5x -cpu 1
//
// Recording and decoding happen once per scale, outside the timer, so
// ns/access is the cache lookup plus one policy's callbacks and nothing
// else. The closing "mean" row of each scale is the unweighted mean of
// the policies' rows: a co-run sweep weights every policy equally.
func BenchmarkPolicyAccess(b *testing.B) {
	for _, scale := range []uint32{64, 16} {
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			hcfg := exp.ScaledConfig(scale).HCfg
			var streams []policyStream
			var total int
			for _, name := range []string{"lj", "tw", "kr"} {
				ds, err := graph.DatasetByName(name)
				if err != nil {
					b.Fatal(err)
				}
				w, err := sim.PrepareWorkload(ds, "DBG", false, scale)
				if err != nil {
					b.Fatal(err)
				}
				for _, app := range []string{"PR", "KCore", "TC", "BFS"} {
					tr, err := sim.RecordTraceNCtx(context.Background(), w, app, apps.LayoutMerged, hcfg, 0)
					if err != nil {
						b.Fatal(err)
					}
					accs, err := tr.Accesses(0)
					if err != nil {
						b.Fatal(err)
					}
					abrs, err := sim.ABRBoundsFor(w, app, apps.LayoutMerged)
					if err != nil {
						b.Fatal(err)
					}
					streams = append(streams, policyStream{accs: accs, abrs: abrs})
					total += len(accs)
				}
			}
			var sum float64
			policies := sim.Policies()
			for _, pinfo := range policies {
				var row float64
				b.Run(pinfo.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for _, s := range streams {
							llc, err := sim.NewReplayLLC(sim.Spec{Policy: pinfo.Name, HCfg: hcfg}, s.abrs)
							if err != nil {
								b.Fatal(err)
							}
							for _, a := range s.accs {
								llc.Access(a)
							}
						}
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(total)
					b.ReportMetric(ns, "ns/access")
					row = ns // the last, largest-N run of this row
				})
				sum += row
			}
			mean := sum / float64(len(policies))
			b.Run("mean", func(b *testing.B) {
				b.ReportMetric(mean, "ns/access")
			})
		})
	}
}
