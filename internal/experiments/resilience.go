package experiments

import (
	"fmt"

	"antidope/internal/cluster"
	"antidope/internal/faults"
	"antidope/internal/harness"
)

// resilienceSLASec is the latency SLO a legitimate request must meet to
// count as served: dropped, lost, and slower-than-SLO requests all violate.
const resilienceSLASec = 0.25

// ResilienceResult sweeps the Table 2 schemes across fault-injection
// intensity: the Section 6 Medium-PB attack scenario with a seeded chaos
// schedule (crashes, telemetry corruption, DVFS faults, firewall flaps,
// battery failures) scaled from none to twice the baseline rate. All
// schemes at one intensity face the identical fault schedule.
type ResilienceResult struct {
	Table *Table
	// Intensities and Schemes index SLA and OvershootW: SLA[i][j] is the
	// SLA compliance of scheme j at intensity i, OvershootW[i][j] the peak
	// power overshoot above budget in watts.
	Intensities []float64
	Schemes     []string
	SLA         [][]float64
	OvershootW  [][]float64
}

// Resilience runs the fault-intensity sweep.
func Resilience(o Options) (*ResilienceResult, error) {
	horizon := o.Horizon(240)
	intensities := []float64{0, 0.5, 1, 2}
	if o.Quick {
		intensities = []float64{0, 1, 2}
	}
	schemes := []string{"capping", "shaving", "token", "anti-dope"}

	// Baseline (intensity 1) chaos rate over the horizon. The generator
	// seed derives from the intensity alone, so every scheme at one
	// intensity faces the same fault schedule — the sweep compares
	// defenses, not luck.
	base := faults.GeneratorConfig{
		Horizon:         horizon,
		Servers:         cluster.DefaultConfig().Servers,
		Crashes:         2,
		TelemetryFaults: 3,
		DVFSFaults:      2,
		FirewallFlaps:   1,
		BatteryFaults:   1,
		MeanFaultSec:    15,
	}

	out := &ResilienceResult{Intensities: intensities, Schemes: schemes}
	out.Table = &Table{
		Title: "Resilience sweep: graceful degradation under infrastructure faults (Medium-PB, DOPE injection)",
		Header: []string{"intensity", "scheme", "SLA<=250ms", "peak over (W)",
			"availability", "crashes", "requeued", "lost"},
	}

	var jobs []harness.Job
	for _, x := range intensities {
		gen := base.Scaled(x)
		gen.Seed = o.SeedFor(fmt.Sprintf("resilience/faults/%.2f", x))
		for _, name := range schemes {
			label := fmt.Sprintf("resilience/%s/x%.2f", name, x)
			job := EvalJob(o, label, SchemeByName(name), cluster.MediumPB,
				EvalAttackSpecs(10, horizon), horizon)
			if x > 0 {
				g := gen
				job.Config.Faults = &faults.Config{Generator: &g}
			}
			jobs = append(jobs, job)
		}
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	next := resultCursor(results)
	for _, x := range intensities {
		slaRow := make([]float64, 0, len(schemes))
		overRow := make([]float64, 0, len(schemes))
		for _, name := range schemes {
			r := next()
			sla := r.SLACompliance(resilienceSLASec)
			over := r.PeakPowerW() - r.BudgetW
			if over < 0 {
				over = 0
			}
			slaRow = append(slaRow, sla)
			overRow = append(overRow, over)
			out.Table.AddRow(f2(x), name, pct(sla), f1(over), pct(r.Availability()),
				fmt.Sprintf("%d", r.ServerCrashes),
				fmt.Sprintf("%d", r.CrashRequeued),
				fmt.Sprintf("%d", r.CrashLost))
		}
		out.SLA = append(out.SLA, slaRow)
		out.OvershootW = append(out.OvershootW, overRow)
	}
	if out.DegradationOrderOK() {
		out.Table.Notes = append(out.Table.Notes,
			"at the highest fault intensity the SLA ordering holds: Anti-DOPE >= Token >= Shaving >= Capping.")
	} else {
		out.Table.Notes = append(out.Table.Notes,
			"WARNING: expected degradation ordering (Anti-DOPE >= Token >= Shaving >= Capping) violated at top intensity.")
	}
	return out, nil
}

// DegradationOrderOK reports whether, at the highest fault intensity, SLA
// compliance degrades in the expected scheme order: Anti-DOPE >= Token >=
// Shaving >= Capping (ties allowed).
func (r *ResilienceResult) DegradationOrderOK() bool {
	if len(r.SLA) == 0 {
		return false
	}
	top := r.SLA[len(r.SLA)-1] // schemes order: capping, shaving, token, anti-dope
	for i := 0; i+1 < len(top); i++ {
		if top[i] > top[i+1] {
			return false
		}
	}
	return true
}
