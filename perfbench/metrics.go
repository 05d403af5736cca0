package main

import (
	"math"
	"regexp"
	"sort"
)

// metricDef is one metric the benchmark can print. Bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; Gated marks the end-to-end metrics that go
// into the final JSON line (and BENCHMARK.json). The others are printed in
// the human-readable table only: they read 0 on some workload (a relative
// bound on a zero median is meaningless), exist on one workload only, or,
// like sim_p90_ms, vary across seeds by more than any usable bound on
// chaos, where the seed draws the fault schedule. Their bounds apply to
// comparisons at one seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Gated  bool
}

// endToEnd lists every end-to-end metric, measured with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25, true},
	{"setup_s", "s", "lower", 0.25, true},
	{"ns_per_req", "ns/req", "lower", 0.25, true},
	{"alloc_b_per_req", "B/req", "lower", 0.15, true},
	{"max_rss_mb", "MB", "lower", 0.20, true},
	{"sim_avail", "frac", "higher", 0.06, true},
	{"sim_p90_ms", "ms", "lower", 0.10, false},
	{"failed_frac", "frac", "lower", 0, false},
	{"sim_over_kj", "kJ", "lower", 0.10, false},
	{"checks_failed", "count", "lower", 0, false},
	{"paper_gap_pts", "pts", "lower", 0.25, false},
}

// modules are the simulator layers the CPU profile is folded into, named
// after their packages under internal/, plus runtime (samples outside any
// module frame) and bench (the benchmark's own frames).
var modules = []string{
	"simtime", "server", "workload", "rng", "power", "netlb", "firewall",
	"defense", "battery", "cluster", "core", "stats", "obs", "harness",
	"scenario", "runtime", "bench",
}

// perLayer lists every per-layer metric, printed with --trace 1.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
		{Name: "scenario.compile_us", Unit: "us", Better: "lower"},
		{Name: "core.new_us", Unit: "us", Better: "lower"},
		{Name: "core.run_ms", Unit: "ms", Better: "lower"},
		{Name: "core.finish_us", Unit: "us", Better: "lower"},
		{Name: "harness.jobs", Unit: "count", Better: "lower"},
		{Name: "harness.job_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "harness.job_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "harness.unaccounted_frac", Unit: "frac", Better: "lower"},
		{Name: "defense.admit_calls", Unit: "count", Better: "lower"},
		{Name: "defense.admit_ns", Unit: "ns", Better: "lower"},
		{Name: "defense.admit_refused_frac", Unit: "frac", Better: "lower"},
		{Name: "defense.slot_calls", Unit: "count", Better: "lower"},
		{Name: "defense.slot_us", Unit: "us", Better: "lower"},
		{Name: "workload.reqs", Unit: "count", Better: "higher"},
		{Name: "workload.attack_frac", Unit: "frac", Better: "lower"},
		{Name: "firewall.observed", Unit: "count", Better: "lower"},
		{Name: "firewall.drop_frac", Unit: "frac", Better: "higher"},
		{Name: "firewall.bans", Unit: "count", Better: "higher"},
		{Name: "netlb.suspect_frac", Unit: "frac", Better: "higher"},
		{Name: "server.completed", Unit: "count", Better: "higher"},
		{Name: "server.reject_frac", Unit: "frac", Better: "lower"},
		{Name: "server.freq_changes", Unit: "count", Better: "lower"},
		{Name: "server.inflight_mean", Unit: "count", Better: "lower"},
		{Name: "battery.discharge_kj", Unit: "kJ", Better: "lower"},
		{Name: "battery.cycles", Unit: "count", Better: "lower"},
		{Name: "cluster.slots_over_frac", Unit: "frac", Better: "lower"},
		{Name: "core.net_retry_frac", Unit: "frac", Better: "lower"},
		{Name: "core.net_lost", Unit: "count", Better: "lower"},
		{Name: "core.crash_requeued", Unit: "count", Better: "lower"},
		{Name: "runtime.mallocs_per_req", Unit: "1/req", Better: "lower"},
		{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{Name: m + ".cpu_frac", Unit: "frac", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "obs.events_per_req", Unit: "1/req", Better: "lower"},
		metricDef{Name: "obs.overhead_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	)
}()

// metricName is the shape every emitted metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
