// Package antidope's repository-root benchmarks regenerate every table and
// figure of the paper's evaluation (see the experiment index in DESIGN.md).
// Each BenchmarkExperiment iteration executes one index entry in Quick
// mode; run the cmd/paperbench binary (without -quick) for the
// full-fidelity numbers recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package antidope

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"antidope/internal/core"
	"antidope/internal/experiments"
	"antidope/internal/scenario"
)

func opts(i int) experiments.Options {
	return experiments.Options{Seed: uint64(2019 + i), Quick: true}
}

// BenchmarkExperiment runs each entry of the experiment index once per
// iteration, discarding its printed section. Iteration i uses seed 2019+i.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Index() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(opts(i), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllQuick runs the entire quick suite twice per configuration —
// once sequentially, once with the harness's default worker count — so a
// single -bench run shows the parallel speedup. On a multi-core runner the
// parallel case should finish at least ~2x faster at 4 workers; the printed
// tables are byte-identical either way (see TestParallelEquivalence).
func BenchmarkAllQuick(b *testing.B) {
	configs := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		configs = append(configs, n)
	}
	for _, workers := range configs {
		name := "sequential"
		if workers != 1 {
			name = fmt.Sprintf("parallel-%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := opts(i)
				o.Parallel = workers
				if err := experiments.All(o, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRun times single whole runs compiled from the scenario library
// at quick fidelity and reports the host cost per simulated request:
// ns/req and B/req (heap bytes allocated from core.New to the returned
// Result, per offered legitimate or attack request). fig3-udp is the
// UDP-Flood run of Figure 3, 8000 req/s on the unprotected rack.
func BenchmarkRun(b *testing.B) {
	for _, tc := range []struct{ name, file, run string }{
		{"fig3-udp", "scenarios/fig03_attack_profiles.yaml", "UDP-Flood"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sc, err := scenario.Load(tc.file)
			if err != nil {
				b.Fatal(err)
			}
			var reqs, allocB uint64
			var m0, m1 runtime.MemStats
			for i := 0; i < b.N; i++ {
				// Compile per iteration: each run needs a fresh scheme.
				b.StopTimer()
				cfg, err := scenarioRun(sc, tc.run)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				res, err := core.RunOnce(cfg)
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				if err != nil {
					b.Fatal(err)
				}
				reqs += res.OfferedLegit + res.OfferedAttack
				allocB += m1.TotalAlloc - m0.TotalAlloc
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/req")
			b.ReportMetric(float64(allocB)/float64(reqs), "B/req")
		})
	}
}

// scenarioRun compiles sc at quick fidelity and returns the named run's
// configuration.
func scenarioRun(sc *scenario.Scenario, run string) (core.Config, error) {
	plan, err := scenario.Compile(sc, opts(0))
	if err != nil {
		return core.Config{}, err
	}
	for i, m := range plan.Metas {
		if m.Name == run {
			return plan.Jobs[i].Config, nil
		}
	}
	return core.Config{}, fmt.Errorf("scenario %s has no run %q", sc.Name, run)
}
