package experiments

import (
	"fmt"

	"antidope/internal/cluster"
	"antidope/internal/faults"
	"antidope/internal/harness"
)

// ResilienceNetResult sweeps the Table 2 schemes across network-chaos
// intensity: the Section 6 Medium-PB attack scenario with a seeded schedule
// of per-link latency, loss, and partition windows scaled from none to
// twice the baseline rate. The defense telemetry rides the same degraded
// links, so intensity raises both the physical damage (lost and late
// deliveries) and the defense's blindness. All schemes at one intensity
// face the identical network schedule.
type ResilienceNetResult struct {
	Table *Table
	// Intensities and Schemes index SLA and OvershootW: SLA[i][j] is the
	// SLA compliance of scheme j at intensity i, OvershootW[i][j] the peak
	// power overshoot above budget in watts.
	Intensities []float64
	Schemes     []string
	SLA         [][]float64
	OvershootW  [][]float64
	// NetLost/NetTimedOut/NetRetried mirror the ledger of the run behind
	// each table row, indexed like SLA.
	NetLost     [][]uint64
	NetTimedOut [][]uint64
	NetRetried  [][]uint64
}

// ResilienceNet runs the network-chaos sweep.
func ResilienceNet(o Options) (*ResilienceNetResult, error) {
	horizon := o.Horizon(240)
	intensities := []float64{0, 0.5, 1, 2}
	if o.Quick {
		intensities = []float64{0, 1, 2}
	}
	schemes := []string{"capping", "shaving", "token", "anti-dope"}

	// Baseline (intensity 1) network-chaos rate over the horizon: link
	// faults only, so the sweep isolates network conditions from the mixed
	// chaos of the Resilience sweep. The generator seed derives from the
	// intensity alone — every scheme at one intensity faces the same
	// windows.
	base := faults.GeneratorConfig{
		Horizon:      horizon,
		Servers:      cluster.DefaultConfig().Servers,
		NetFaults:    6,
		MeanFaultSec: 15,
	}

	out := &ResilienceNetResult{Intensities: intensities, Schemes: schemes}
	out.Table = &Table{
		Title: "Network-resilience sweep: degradation under link loss/latency/partitions (Medium-PB, DOPE injection)",
		Header: []string{"intensity", "scheme", "SLA<=250ms", "peak over (W)",
			"availability", "lost", "timeout", "retries"},
	}

	var jobs []harness.Job
	for _, x := range intensities {
		gen := base.Scaled(x)
		gen.Seed = o.SeedFor(fmt.Sprintf("resilience-net/links/%.2f", x))
		for _, name := range schemes {
			label := fmt.Sprintf("resilience-net/%s/x%.2f", name, x)
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
		lostRow := make([]uint64, 0, len(schemes))
		toRow := make([]uint64, 0, len(schemes))
		retryRow := make([]uint64, 0, len(schemes))
		for _, name := range schemes {
			r := next()
			sla := r.SLACompliance(resilienceSLASec)
			over := r.PeakPowerW() - r.BudgetW
			if over < 0 {
				over = 0
			}
			slaRow = append(slaRow, sla)
			overRow = append(overRow, over)
			lostRow = append(lostRow, r.NetLost)
			toRow = append(toRow, r.NetTimedOut)
			retryRow = append(retryRow, r.NetRetried)
			out.Table.AddRow(f2(x), name, pct(sla), f1(over), pct(r.Availability()),
				fmt.Sprintf("%d", r.NetLost),
				fmt.Sprintf("%d", r.NetTimedOut),
				fmt.Sprintf("%d", r.NetRetried))
		}
		out.SLA = append(out.SLA, slaRow)
		out.OvershootW = append(out.OvershootW, overRow)
		out.NetLost = append(out.NetLost, lostRow)
		out.NetTimedOut = append(out.NetTimedOut, toRow)
		out.NetRetried = append(out.NetRetried, retryRow)
	}
	if out.DegradationOrderOK() {
		out.Table.Notes = append(out.Table.Notes,
			"at the highest network-chaos intensity the SLA ordering holds: Anti-DOPE >= Token >= Shaving >= Capping.")
	} else {
		out.Table.Notes = append(out.Table.Notes,
			"WARNING: expected degradation ordering (Anti-DOPE >= Token >= Shaving >= Capping) violated at top intensity.")
	}
	return out, nil
}

// DegradationOrderOK reports whether, at the highest network-chaos
// intensity, SLA compliance degrades in the expected scheme order:
// Anti-DOPE >= Token >= Shaving >= Capping (ties allowed).
func (r *ResilienceNetResult) DegradationOrderOK() bool {
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
