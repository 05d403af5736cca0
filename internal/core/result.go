package core

import (
	"fmt"
	"io"
	"sort"

	"antidope/internal/stats"
	"antidope/internal/workload"
)

// Result is everything one run measures. Latency measurements are
// restricted to requests that arrived after the warmup.
//
// Its memory is O(legitimate completions): only LatencyLegit keeps one
// value per request, because its percentiles are reported. Attack traffic
// and the per-class split are plain counters and sums, so a volume flood
// costs the result nothing per request.
type Result struct {
	// SchemeName and BudgetW echo the run configuration.
	SchemeName string
	BudgetW    float64
	NameplateW float64
	Horizon    float64

	// Power is cluster draw sampled every control slot; Battery is the UPS
	// state of charge; VFRed the mean V/F reduction; MeanFreqGHz the mean
	// operating frequency.
	Power   stats.Series
	Battery stats.Series
	VFRed   stats.Series
	Freq    stats.Series

	// LatencyLegit holds the end-to-end response time of every completed
	// legitimate request.
	LatencyLegit *stats.Sample
	// CompletedByClass and RTSumByClass count the completed requests of
	// each class (both origins) and sum their response times in completion
	// order; ClassMeanRT divides them.
	CompletedByClass [workload.NumClasses]uint64
	RTSumByClass     [workload.NumClasses]float64

	// OfferedLegit counts legitimate requests that arrived (post-warmup);
	// CompletedLegit those that finished. Their ratio is the service
	// availability of Figure 9.
	OfferedLegit   uint64
	CompletedLegit uint64
	OfferedAttack  uint64
	CompletedAtk   uint64

	// DroppedByReason counts every dropped request by mechanism
	// (firewall-ban, token-bucket, server-queue-full).
	DroppedByReason map[string]uint64
	// LegitDroppedByReason is the legitimate-only slice of DroppedByReason —
	// the collateral ledger (e.g. legitimate clients caught by a strict
	// firewall threshold).
	LegitDroppedByReason map[string]uint64
	// DroppedLegit / DroppedAttack split drops by origin.
	DroppedLegit  uint64
	DroppedAttack uint64

	// Energy ledger (whole run, no warmup exclusion — it is an integral).
	UtilityEnergyJ float64
	BatteryEnergyJ float64
	TotalEnergyJ   float64
	OverBudgetJ    float64
	BatteryCycles  int

	// FracSlotsOverBudget is the fraction of control slots sampled above
	// the budget — the residual violation a scheme failed to remove.
	FracSlotsOverBudget float64

	// TokenDropFrac is the Token scheme's abandonment fraction (0 for the
	// other schemes).
	TokenDropFrac float64
	// SuspectRouted counts requests PDF pinned onto suspect servers.
	SuspectRouted uint64

	// Outages counts breaker trips (only with the breaker model enabled);
	// OutageSeconds is total downtime.
	Outages       int
	OutageSeconds float64

	// Thermal plane (only with the thermal model enabled): hottest-server
	// and inlet temperature trajectories, throttle-engagement events, and
	// the fraction of control slots with any server thermally throttled.
	MaxTempC              stats.Series
	InletTempC            stats.Series
	ThermalThrottleEvents int
	FracSlotsThermal      float64

	// Fault-injection ledger (only with Config.Faults set): crash events,
	// orphaned in-flight requests re-queued onto surviving servers, and
	// orphans lost to a full or absent destination.
	ServerCrashes int
	CrashRequeued uint64
	CrashLost     uint64

	// Network-condition ledger (only with network fault windows): deliveries
	// lost on a lossy link, retries scheduled by the delivery layer, and
	// deliveries abandoned because the link delay outran the sender's
	// timeout. A lost or late delivery that later succeeds on a retry counts
	// in both its failure tally and NetRetried.
	NetLost     uint64
	NetRetried  uint64
	NetTimedOut uint64

	// DopeTrace, present when the adaptive attacker ran, records its
	// per-epoch operating points.
	DopeTrace []DopeEpoch
}

// DopeEpoch is one probe epoch of the adaptive attacker.
type DopeEpoch struct {
	At        float64
	Class     workload.Class
	RPS       float64
	Agents    int
	Banned    int
	Effective bool
}

// Availability returns completed/offered for legitimate traffic, in [0,1].
// A run that offered nothing reports 1 (nothing was denied).
func (r *Result) Availability() float64 {
	if r.OfferedLegit == 0 {
		return 1
	}
	return float64(r.CompletedLegit) / float64(r.OfferedLegit)
}

// MeanRT returns the mean legitimate response time in seconds.
func (r *Result) MeanRT() float64 { return r.LatencyLegit.Mean() }

// TailRT returns the p-th percentile legitimate response time in seconds.
func (r *Result) TailRT(p float64) float64 { return r.LatencyLegit.Percentile(p) }

// ClassMeanRT returns the mean response time in seconds of the completed
// requests of class c, or 0 if none completed. It equals the Mean of a
// stats.Sample fed the same response times in completion order.
func (r *Result) ClassMeanRT(c workload.Class) float64 {
	n := r.CompletedByClass[c]
	if n == 0 {
		return 0
	}
	return r.RTSumByClass[c] / float64(n)
}

// SLACompliance is the fraction of offered legitimate requests that
// completed within sloSec. Requests dropped, lost, or still queued at the
// horizon count against it. A run that offered nothing reports 1.
func (r *Result) SLACompliance(sloSec float64) float64 {
	if r.OfferedLegit == 0 {
		return 1
	}
	return float64(r.LatencyLegit.CountAtMost(sloSec)) / float64(r.OfferedLegit)
}

// PeakPowerW returns the highest sampled cluster draw.
func (r *Result) PeakPowerW() float64 {
	_, v := r.Power.Max()
	return v
}

// MinBatterySoC returns the lowest sampled state of charge.
func (r *Result) MinBatterySoC() float64 {
	min := 1.0
	for _, p := range r.Battery.Points {
		if p.V < min {
			min = p.V
		}
	}
	return min
}

// Fprint writes a human-readable summary, the shared footer of the CLIs.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "scheme=%s budget=%.0fW/%.0fW horizon=%.0fs\n",
		r.SchemeName, r.BudgetW, r.NameplateW, r.Horizon)
	fmt.Fprintf(w, "  legit: offered=%d completed=%d availability=%.4f\n",
		r.OfferedLegit, r.CompletedLegit, r.Availability())
	fmt.Fprintf(w, "  legit latency: mean=%.1fms p90=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n",
		1e3*r.MeanRT(), 1e3*r.TailRT(90), 1e3*r.TailRT(95), 1e3*r.TailRT(99), 1e3*r.LatencyLegit.Max())
	fmt.Fprintf(w, "  attack: offered=%d completed=%d dropped=%d\n",
		r.OfferedAttack, r.CompletedAtk, r.DroppedAttack)
	if len(r.DroppedByReason) > 0 {
		reasons := make([]string, 0, len(r.DroppedByReason))
		for k := range r.DroppedByReason {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "  drops:")
		for _, k := range reasons {
			fmt.Fprintf(w, " %s=%d", k, r.DroppedByReason[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  power: peak=%.1fW overBudget=%.1fkJ slotsOver=%.1f%%\n",
		r.PeakPowerW(), r.OverBudgetJ/1e3, 100*r.FracSlotsOverBudget)
	fmt.Fprintf(w, "  energy: utility=%.1fkJ battery=%.1fkJ total=%.1fkJ cycles=%d minSoC=%.2f\n",
		r.UtilityEnergyJ/1e3, r.BatteryEnergyJ/1e3, r.TotalEnergyJ/1e3, r.BatteryCycles, r.MinBatterySoC())
	if r.Outages > 0 {
		fmt.Fprintf(w, "  OUTAGE: %d breaker trips, %.0fs of downtime\n", r.Outages, r.OutageSeconds)
	}
	if r.MaxTempC.Len() > 0 {
		_, maxT := r.MaxTempC.Max()
		fmt.Fprintf(w, "  thermal: peak %.1f°C, throttled %.1f%% of slots (%d engagements)\n",
			maxT, 100*r.FracSlotsThermal, r.ThermalThrottleEvents)
	}
	if r.ServerCrashes > 0 {
		fmt.Fprintf(w, "  faults: %d server crashes (%d requeued, %d lost)\n",
			r.ServerCrashes, r.CrashRequeued, r.CrashLost)
	}
	if r.NetLost+r.NetRetried+r.NetTimedOut > 0 {
		fmt.Fprintf(w, "  network: %d deliveries lost, %d timed out, %d retries\n",
			r.NetLost, r.NetTimedOut, r.NetRetried)
	}
	if r.TokenDropFrac > 0 {
		fmt.Fprintf(w, "  token: dropped %.1f%% of packages\n", 100*r.TokenDropFrac)
	}
	if len(r.DopeTrace) > 0 {
		last := r.DopeTrace[len(r.DopeTrace)-1]
		fmt.Fprintf(w, "  dope: %d epochs, final plan %v@%.0frps over %d agents\n",
			len(r.DopeTrace), last.Class, last.RPS, last.Agents)
	}
}
