package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestFoldCannedTraces folds a hand-written `go tool pprof -traces` sample
// whose stacks cover every attribution rule.
func TestFoldCannedTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fold, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"simtime":  0.300, // inlined leaf frame
		"rng":      0.200, // math.Exp counts to its rng caller
		"workload": 0.120, // runtime.mallocgc under Factory.New, plus attack → workload
		"runtime":  0.150, // GC worker, no layer frame at all
		"bench":    0.050, // the benchmark's own JSON encoding
		"harness":  0.030, // experiments → harness
		"defense":  0.040,
		"server":   1.010, // a merged stack printed in seconds
	}
	for _, m := range modules {
		if !near(fold.Seconds[m], want[m]) {
			t.Errorf("%s: got %.3fs, want %.3fs", m, fold.Seconds[m], want[m])
		}
	}
	if !near(fold.Total, 1.9) {
		t.Errorf("total %.3fs, want 1.900s", fold.Total)
	}
	var sum float64
	for _, m := range modules {
		sum += fold.Share(m)
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v", sum)
	}
	for name, w := range map[string]float64{"core.run": 1.67, "defense.hooks": 0.04} {
		if !near(fold.Inclusive[name], w) {
			t.Errorf("inclusive %s: got %.3fs, want %.3fs", name, fold.Inclusive[name], w)
		}
	}
}

func TestFoldRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"",
		"-----------+----\n     10xx   main.main\n",
		"-----------+----\n10ms\n",
	} {
		if _, err := foldTraces(strings.NewReader(in)); err == nil {
			t.Errorf("foldTraces(%q) accepted malformed input", in)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 0.01, "1.20s": 1.2, "250us": 250e-6, "5ns": 5e-9, "2mins": 120,
	} {
		got, err := parseDuration(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// benchmarkFile mirrors the keys of BENCHMARK.json this package owns.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricNames checks every metric name's shape and that BENCHMARK.json
// lists exactly what the command emits.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("bad metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var gated []metricDef
	for _, m := range endToEnd {
		if m.Gated {
			gated = append(gated, m)
		}
	}
	if len(bf.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command emits %d", len(bf.EndToEnd), len(gated))
	}
	for i, m := range gated {
		b := bf.EndToEnd[i]
		if b.Name != m.Name || b.Unit != m.Unit || b.Better != m.Better || !near(b.Bound, m.Bound) {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, b, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		b := bf.PerLayer[i]
		if b.Name != m.Name || b.Unit != m.Unit || b.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, b, m)
		}
	}
	var listed []workloadDef
	for _, w := range workloads {
		if !w.Unlisted {
			listed = append(listed, w)
		}
	}
	if len(bf.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command lists %d", len(bf.Workloads), len(listed))
	}
	for i, w := range listed {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workloads[%d] = %+v, command has %s: %s", i, bf.Workloads[i], w.Name, w.Why)
		}
	}
}

// TestTracedPassKeepsResults runs the defense workload untraced and traced:
// the timing Scheme wrapper must leave every Result field identical except
// TokenDropFrac, which core reads only from a bare *defense.Token. Every
// per-layer value the traced pass measures must carry a listed name.
func TestTracedPassKeepsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the defense workload twice")
	}
	w, _ := workloadByName("defense")
	env := passEnv{w: w, root: "..", seed: 2019, fingerprints: true}
	var plain, traced passResult
	if err := env.runPlain(&plain, nil); err != nil {
		t.Fatal(err)
	}
	if err := env.runTraced(&traced); err != nil {
		t.Fatal(err)
	}
	if len(plain.Fingerprints) != 16 || len(traced.Fingerprints) != 16 {
		t.Fatalf("jobs: untraced %d, traced %d, want 16", len(plain.Fingerprints), len(traced.Fingerprints))
	}
	tokenRuns := 0
	for i := range plain.Fingerprints {
		if plain.Fingerprints[i] != traced.Fingerprints[i] {
			t.Errorf("job %d: traced Result differs beyond TokenDropFrac", i)
		}
		if plain.TokenDropFrac[i] > 0 {
			tokenRuns++
			if traced.TokenDropFrac[i] != 0 {
				t.Errorf("job %d: wrapped Token still reports TokenDropFrac %v", i, traced.TokenDropFrac[i])
			}
		}
	}
	if tokenRuns != 4 {
		t.Errorf("%d untraced runs report a Token drop fraction, want 4", tokenRuns)
	}
	names := map[string]bool{}
	for _, m := range perLayer {
		names[m.Name] = true
	}
	for k := range traced.Layer {
		if !names[k] || !metricName.MatchString(k) {
			t.Errorf("traced pass measures unlisted metric %q", k)
		}
	}
	if traced.Layer["defense.admit_calls"] == 0 || traced.Layer["core.run_ms"] == 0 {
		t.Errorf("traced pass timed nothing: %v", traced.Layer)
	}
}

// TestReference checks that the reference workload does its fixed work.
func TestReference(t *testing.T) {
	if d, ok := referenceSeconds(); !ok || d <= 0 {
		t.Fatalf("referenceSeconds = %v, %v; want a positive time and checksum %#x", d, ok, uint64(refChecksum))
	}
}

func TestSuiteSetupStopsAtFirstJob(t *testing.T) {
	w, _ := workloadByName("suite")
	env := passEnv{w: w, root: "..", seed: 2019}
	d, err := env.setupSuite()
	if err != nil || d <= 0 {
		t.Fatalf("setupSuite = %v, %v", d, err)
	}
}
