package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// Experiment is one entry of the experiment index: a named experiment, the
// paper figures it regenerates, and the runner that executes it and prints
// its section. All, paperbench -fig/-x and the repository-root
// BenchmarkExperiment all walk the same index.
type Experiment struct {
	// Name selects the entry: paperbench -x <name>,
	// BenchmarkExperiment/<name>, and the label of a failed suite group.
	Name string
	// Figures lists the paper figures the entry regenerates (paperbench
	// -fig N); empty for experiments beyond the paper.
	Figures []int
	// Suite marks the entries All runs.
	Suite bool
	// Run executes the experiment under o and prints its section to w: its
	// tables, then its check line (the resilience sweeps state theirs as a
	// table note).
	Run func(o Options, w io.Writer) error
}

// index is the experiment index in paper order. The two resilience sweeps
// run only on request: each is pinned by its own golden, outside the suite's.
var index = []Experiment{
	{Name: "fig3", Figures: []int{3}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig3, err := Fig3(o)
		if err != nil {
			return err
		}
		fig3.Table.Fprint(w)
		fmt.Fprintf(w, "  check: application-layer floods top the power ranking: %v\n\n", fig3.AppLayerTops())
		return nil
	}},
	{Name: "fig4", Figures: []int{4}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig4, err := Fig4(o)
		if err != nil {
			return err
		}
		fig4.TableA.Fprint(w)
		fig4.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: power monotone in rate: %v; variance shrinks with rate: %v\n\n",
			fig4.MonotoneInRate(2), fig4.VarianceShrinksWithRate())
		return nil
	}},
	{Name: "fig5", Figures: []int{5}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig5, err := Fig5(o)
		if err != nil {
			return err
		}
		fig5.TableA.Fprint(w)
		fig5.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: Colla-Filt rightmost CDF: %v; K-means costliest/request: %v; volume flood cheapest: %v\n\n",
			fig5.CollaFiltRightmost(), fig5.KMeansCostliestPerRequest(), fig5.VolumeFloodCheapest())
		return nil
	}},
	{Name: "fig6", Figures: []int{6}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig6, err := Fig6(o)
		if err != nil {
			return err
		}
		fig6.TableA.Fprint(w)
		fig6.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: heavy classes trip DVFS first: %v; K-means needs deepest cut: %v\n\n",
			fig6.HeavyClassesTripFirst(0.01), fig6.KMeansDeepestCut())
		return nil
	}},
	{Name: "fig7", Figures: []int{7}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig7, err := Fig7(o)
		if err != nil {
			return err
		}
		fig7.Table.Fprint(w)
		mb, pb := fig7.BlowupPastKnee()
		fmt.Fprintf(w, "  check: blowup past knee mean=%.1fx p90=%.1fx (paper: 7.4x / 8.9x)\n\n", mb, pb)
		return nil
	}},
	{Name: "fig8", Figures: []int{8}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig8, err := Fig8(o)
		if err != nil {
			return err
		}
		fig8.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Colla-Filt/K-means degrade most: %v\n\n", fig8.HeavyTypesDegradeMost())
		return nil
	}},
	{Name: "fig9", Figures: []int{9}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig9, err := Fig9(o)
		if err != nil {
			return err
		}
		fig9.Table.Fprint(w)
		fmt.Fprintf(w, "  check: availability degrades with shrinking budget: %v\n\n",
			fig9.AvailabilityDegradesWithBudget())
		return nil
	}},
	{Name: "fig10", Figures: []int{10}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig10, err := Fig10(o)
		if err != nil {
			return err
		}
		fig10.Table.Fprint(w)
		fmt.Fprintf(w, "  check: firewall cuts median power: %v; detection lag leaves spikes: %v\n\n",
			fig10.FirewallCutsMedianPower(), fig10.LagLeavesSpikes())
		return nil
	}},
	{Name: "fig11", Figures: []int{11}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig11, err := Fig11(o)
		if err != nil {
			return err
		}
		fig11.Table.Fprint(w)
		fmt.Fprintf(w, "  check: DOPE region exists: %v\n\n", fig11.RegionExists())
		return nil
	}},
	{Name: "fig12", Figures: []int{12}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig12, err := Fig12(o)
		if err != nil {
			return err
		}
		fig12.Table.Fprint(w)
		fmt.Fprintf(w, "  check: attacker ends effective and undetected: %v (over-budget %.1f kJ)\n\n",
			fig12.FinalUndetected, fig12.BudgetViolatedJ/1e3)
		return nil
	}},
	{Name: "fig15", Figures: []int{15}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig15, err := Fig15(o)
		if err != nil {
			return err
		}
		fig15.TableA.Fprint(w)
		fig15.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: power held under budget: %v; only slight legit degradation: %v\n\n",
			fig15.PowerHeld(), fig15.SlightDegradationOnly())
		return nil
	}},
	{Name: "evalgrid", Figures: []int{16, 17, 19}, Suite: true, Run: func(o Options, w io.Writer) error {
		grid, err := RunEvalGrid(o)
		if err != nil {
			return err
		}
		grid.Fig16().Fprint(w)
		grid.Fig17().Fprint(w)
		grid.Fig19().Fprint(w)
		meanImpr, p90Impr, headline := grid.Headline()
		headline.Fprint(w)
		fmt.Fprintf(w, "  check: Anti-DOPE improves mean RT by %s and p90 by %s (paper: 44%% / 68.1%%)\n\n",
			pct(meanImpr), pct(p90Impr))
		return nil
	}},
	{Name: "fig18", Figures: []int{18}, Suite: true, Run: func(o Options, w io.Writer) error {
		fig18, err := Fig18(o)
		if err != nil {
			return err
		}
		fig18.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Shaving drains deepest: %v; Anti-DOPE keeps reserve: %v\n\n",
			fig18.ShavingDrainsDeepest(), fig18.AntiDopeKeepsReserve())
		return nil
	}},
	// Beyond the paper's figures: the ablation of Anti-DOPE's design
	// elements and the outage consequence of an unmitigated DOPE attack.
	{Name: "ablation", Suite: true, Run: func(o Options, w io.Writer) error {
		abl, err := Ablation(o)
		if err != nil {
			return err
		}
		abl.Table.Fprint(w)
		fmt.Fprintf(w, "  check: PDF isolation is the dominant lever: %v\n\n", abl.PDFIsTheLever())
		return nil
	}},
	{Name: "outage", Suite: true, Run: func(o Options, w io.Writer) error {
		outage, err := Outage(o)
		if err != nil {
			return err
		}
		outage.Table.Fprint(w)
		fmt.Fprintf(w, "  check: only the undefended rack suffers outages: %v\n\n", outage.UndefendedTrips())
		return nil
	}},
	{Name: "pulse", Suite: true, Run: func(o Options, w io.Writer) error {
		pulse, err := Pulse(o)
		if err != nil {
			return err
		}
		pulse.Table.Fprint(w)
		fmt.Fprintf(w, "  check: pulsing wears Shaving's battery: %v; Anti-DOPE tail stable: %v\n\n",
			pulse.ShavingWearsBattery(), pulse.AntiDopeStableTail())
		return nil
	}},
	{Name: "scale", Suite: true, Run: func(o Options, w io.Writer) error {
		scale, err := Scale(o)
		if err != nil {
			return err
		}
		scale.Table.Fprint(w)
		fmt.Fprintf(w, "  check: vulnerability and remedy invariant across scale: %v\n\n", scale.InvariantAcrossScale())
		return nil
	}},
	{Name: "capacity", Suite: true, Run: func(o Options, w io.Writer) error {
		capres, err := Capacity(o)
		if err != nil {
			return err
		}
		capres.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Anti-DOPE preserves the most SLA-compliant capacity: %v\n\n",
			capres.AntiDopePreservesMostCapacity())
		return nil
	}},
	{Name: "detection", Suite: true, Run: func(o Options, w io.Writer) error {
		det, err := Detection(o)
		if err != nil {
			return err
		}
		det.Table.Fprint(w)
		fmt.Fprintf(w, "  check: budget-level DOPE invisible to the static threshold but caught by CUSUM: %v\n\n",
			det.CUSUMSeesDope())
		return nil
	}},
	{Name: "robustness", Suite: true, Run: func(o Options, w io.Writer) error {
		rob, err := Robustness(o)
		if err != nil {
			return err
		}
		rob.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Anti-DOPE wins on every seed: %v\n\n", rob.AlwaysWins())
		return nil
	}},
	{Name: "thermal", Suite: true, Run: func(o Options, w io.Writer) error {
		therm, err := Thermal(o)
		if err != nil {
			return err
		}
		therm.Table.Fprint(w)
		fmt.Fprintf(w, "  check: cooling attack exists and isolation contains it: %v / %v\n",
			therm.ThermalThreatExists(), therm.IsolationKeepsCool())
		return nil
	}},
	{Name: "resilience", Run: func(o Options, w io.Writer) error {
		res, err := Resilience(o)
		if err != nil {
			return err
		}
		res.Table.Fprint(w)
		return nil
	}},
	{Name: "resilience-net", Run: func(o Options, w io.Writer) error {
		res, err := ResilienceNet(o)
		if err != nil {
			return err
		}
		res.Table.Fprint(w)
		return nil
	}},
}

// Index returns a copy of the experiment index, in paper order.
func Index() []Experiment { return slices.Clone(index) }

// Lookup returns the index entry with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range index {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ForFigure returns the index entry that regenerates paper figure fig.
// Figures 1, 2, 13 and 14 are diagrams and have none.
func ForFigure(fig int) (Experiment, bool) {
	for _, e := range index {
		if slices.Contains(e.Figures, fig) {
			return e, true
		}
	}
	return Experiment{}, false
}

// All runs every suite entry of the index and prints the tables in paper
// order. This is what cmd/paperbench executes and what EXPERIMENTS.md
// records.
//
// A failing experiment group does not abort the suite: its tables are
// skipped, the remaining groups still run, and the failures are listed in a
// footer (and returned, joined, so callers can exit non-zero). The options
// line deliberately omits the Parallel setting — the output is byte-identical
// across parallel settings, and printing the worker count would break that.
func All(o Options, w io.Writer) error {
	fmt.Fprintln(w, "# Anti-DOPE reproduction — full experiment suite")
	fmt.Fprintf(w, "# options: seed=%d quick=%v\n\n", o.Seed, o.Quick)

	var errs []error
	groups := 0
	for _, e := range index {
		if !e.Suite {
			continue
		}
		groups++
		if err := e.Run(o, w); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.Name, err))
		}
	}
	fmt.Fprintf(w, "\n# footer: %d/%d experiment groups ok\n", groups-len(errs), groups)
	for _, err := range errs {
		fmt.Fprintf(w, "# FAILED %v\n", err)
	}
	return errors.Join(errs...)
}
