package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// metricDef names one metric the benchmark emits. The two tables below are
// the program's side of BENCHMARK.json: the self-test fails when they and
// the file disagree on a name, unit or direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is printed by every untraced run of every workload. The driver
// requires each workload to emit every end-to-end metric and none may read
// zero, so the set is the one that means the same thing for a sweep and
// for a daemon: time to get ready, time for the unit of work, CPU burnt,
// and memory held. The per-class request latencies a graspd user feels are
// printed by the same run but live in perLayer (see README, "Demotions").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// policyNames is the registered LLC policy set the per-policy rungs cover.
// It is spelled out (not read from sim.Policies) so the metric names in
// BENCHMARK.json stay fixed; a policy missing from the registry reads 0.
var policyNames = []string{
	"LRU", "SRRIP", "BRRIP", "RRIP", "DIP", "PLRU", "SHiP-MEM", "SHiP-PC",
	"Hawkeye", "Leeway", "PIN-25", "PIN-50", "PIN-75", "PIN-100",
	"RRIP+Hints", "GRASP (Insertion-Only)", "GRASP", "GRASP-LRU",
	"GRASP-PLRU", "GRASP-DIP",
}

// reorderNames is every reordering technique the sweep grids prepare.
var reorderNames = []string{"Identity", "Sort", "HubSort", "DBG", "Gorder+DBG"}

var unsafeNameRun = regexp.MustCompile(`[^A-Za-z0-9.-]+`)

// sanitize maps a policy or technique name onto the metric-name alphabet.
func sanitize(s string) string {
	return strings.Trim(unsafeNameRun.ReplaceAllString(s, "_"), "_")
}

// perLayer is printed by every traced run; a layer the workload does not
// exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	out := []metricDef{
		// What a caller sees per request class. Measured by the untraced
		// run as well and printed there; listed here because a sweep has
		// no request classes (README, "Demotions").
		{"fail_share", "share", "lower"},
		{"req_per_s", "1/s", "higher"},
		{"hit_ms_p50", "ms", "lower"},
		{"hit_ms_p99", "ms", "lower"},
		{"read_ms_p50", "ms", "lower"},
		{"cold_full_ms_p50", "ms", "lower"},
		{"cold_full_ms_p90", "ms", "lower"},
		{"cold_sampled_ms_p50", "ms", "lower"},
		{"cold_sampled_ms_p90", "ms", "lower"},

		{"graph.load_s", "s", "lower"},
		{"graph.load_ns_per_edge", "ns", "lower"},
		{"reorder.run_s", "s", "lower"},
	}
	for _, r := range reorderNames {
		out = append(out, metricDef{"reorder.ns_per_edge." + sanitize(r), "ns", "lower"})
	}
	out = append(out,
		metricDef{"apps.native_ns_per_access", "ns", "lower"},
		metricDef{"ligra.emit_ns_per_access", "ns", "lower"},
		metricDef{"sim.record_s", "s", "lower"},
		metricDef{"sim.record_ns_per_llc_access", "ns", "lower"},
		metricDef{"cache.filter_encode_ns_per_access", "ns", "lower"},
		metricDef{"trace.encode_ns_per_access", "ns", "lower"},
		metricDef{"trace.bytes_per_access", "B", "lower"},
		metricDef{"trace.decode_ns_per_access", "ns", "lower"},
		metricDef{"trace.fanout_ns_per_access_per_consumer", "ns", "lower"},
		metricDef{"trace.decode_masked_ns_per_access", "ns", "lower"},
		metricDef{"trace.pruned_share", "share", "higher"},
		metricDef{"trace.chunks_skipped", "count", "higher"},
		metricDef{"sim.sampled_s", "s", "lower"},
	)
	for _, p := range policyNames {
		out = append(out, metricDef{"cache.access_ns." + sanitize(p), "ns", "lower"})
	}
	out = append(out,
		metricDef{"sim.broadcast_s", "s", "lower"},
		metricDef{"sim.direct_s", "s", "lower"},
		metricDef{"trace.interleave_ns_per_access", "ns", "lower"},
		metricDef{"sim.corun_s", "s", "lower"},
		metricDef{"sim.corun_ns_per_access", "ns", "lower"},
		metricDef{"policy.opt_ns_per_access", "ns", "lower"},
		metricDef{"exp.render_s", "s", "lower"},
		metricDef{"exp.prefetch_s", "s", "lower"},
		metricDef{"exp.wall_1core_s", "s", "lower"},
		metricDef{"exp.ladder_sum_s", "s", "lower"},
		metricDef{"exp.unexplained_share", "share", "lower"},
		metricDef{"exp.parallel_speedup", "x", "higher"},
		metricDef{"exp.points", "count", "lower"},
		metricDef{"exp.groups", "count", "lower"},
		metricDef{"trace.llc_accesses", "count", "lower"},

		metricDef{"jobs.canon_hash_us", "us", "lower"},
		metricDef{"jobs.store_get_us", "us", "lower"},
		metricDef{"jobs.store_put_ms", "ms", "lower"},
		metricDef{"jobs.journal_append_ms", "ms", "lower"},
		metricDef{"jobs.submit_hit_us", "us", "lower"},
		metricDef{"server.handler_us_p50.hit", "us", "lower"},
		metricDef{"server.handler_us_p50.read", "us", "lower"},
		metricDef{"server.transport_us_p50", "us", "lower"},
		metricDef{"server.accept_ms_p50", "ms", "lower"},
		metricDef{"server.unexplained_share", "share", "lower"},
		metricDef{"jobs.queue_wait_ms_p50", "ms", "lower"},
		metricDef{"jobs.queue_wait_ms_p90", "ms", "lower"},
		metricDef{"jobs.executed", "count", "lower"},
		metricDef{"jobs.store_hits", "count", "higher"},
		metricDef{"jobs.dedup_hits", "count", "higher"},
		metricDef{"jobs.failed", "count", "lower"},
		metricDef{"jobs.shed", "count", "lower"},
		metricDef{"jobs.exec_per_unique", "x", "lower"},

		metricDef{"cluster.local_hit_ms_p50", "ms", "lower"},
		metricDef{"cluster.fwd_hit_ms_p50", "ms", "lower"},
		metricDef{"cluster.fwd_hop_us_p50", "us", "lower"},
		metricDef{"cluster.fwd_share", "share", "lower"},
		metricDef{"cluster.read_local_ms_p50", "ms", "lower"},
		metricDef{"cluster.read_federated_ms_p50", "ms", "lower"},
		metricDef{"cluster.replicate_lag_ms_p50", "ms", "lower"},
		metricDef{"cluster.replicated_share", "share", "higher"},
		metricDef{"cluster.forwarded", "count", "lower"},
		metricDef{"cluster.failovers", "count", "lower"},
		metricDef{"cluster.fetches", "count", "lower"},
		metricDef{"cluster.hedged_reads", "count", "lower"},
		metricDef{"cluster.cache_fills", "count", "lower"},
	)
	return out
}

// sample is one measured value and the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// metrics collects a run's values by name.
type metrics map[string]sample

func (m metrics) set(name string, v float64, n int) { m[name] = sample{v, n} }

// setDist records the pct-th percentile of xs under name. A percentile is
// only reported with at least ten samples beyond it (p99 needs 1000, p90
// needs 100); with fewer it reads 0 with the n it had, which the printed
// table shows.
func (m metrics) setDist(name string, xs []float64, pct float64) {
	need := 1
	if pct > 50 {
		need = int(math.Ceil(1000/(100-pct) - 1e-9))
	}
	if len(xs) < need {
		m[name] = sample{0, len(xs)}
		return
	}
	m[name] = sample{percentile(xs, pct), len(xs)}
}

// percentile returns the pct-th percentile (nearest rank on a sorted copy);
// 0 for an empty slice.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if pct == 50 {
		mid := len(s) / 2
		if len(s)%2 == 0 {
			return (s[mid-1] + s[mid]) / 2
		}
		return s[mid]
	}
	rank := int(math.Ceil(pct/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// table renders defs with their values, one metric per line, for humans;
// the driver reads only the JSON line printed after it.
func (m metrics) table(defs []metricDef) string {
	var sb strings.Builder
	for _, d := range defs {
		s := m[d.Name]
		fmt.Fprintf(&sb, "%-44s %14.6g %-6s n=%d\n", d.Name, s.value, d.Unit, s.n)
	}
	return sb.String()
}
