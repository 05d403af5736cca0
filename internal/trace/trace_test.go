package trace

import (
	"math"
	"strings"
	"testing"
)

func TestSynthesizeShape(t *testing.T) {
	cfg := DefaultSynth()
	cfg.Machines = 200 // keep the test fast; shape is machine-count invariant
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Duration(); math.Abs(got-12*3600) > 1 {
		t.Fatalf("duration %g", got)
	}
	if tr.Machines != 200 {
		t.Fatalf("machines %d", tr.Machines)
	}
	mean := tr.MeanUtil()
	if mean < 0.25 || mean > 0.55 {
		t.Fatalf("mean util %g, want ~0.40", mean)
	}
	for i, v := range tr.Samples {
		if v < 0 || v > 1 {
			t.Fatalf("sample %d out of [0,1]: %g", i, v)
		}
	}
}

func TestSynthesizeDiurnalSwing(t *testing.T) {
	cfg := DefaultSynth()
	cfg.Machines = 200
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 12 h window starting at the trough should climb: the last quarter's
	// mean exceeds the first quarter's.
	n := len(tr.Samples)
	var early, late float64
	for i := 0; i < n/4; i++ {
		early += tr.Samples[i]
	}
	for i := 3 * n / 4; i < n; i++ {
		late += tr.Samples[i]
	}
	if late <= early {
		t.Fatalf("no diurnal climb: early=%g late=%g", early, late)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultSynth()
	cfg.Machines = 50
	a, _ := Synthesize(cfg)
	b, _ := Synthesize(cfg)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	cfg.Seed++
	c, _ := Synthesize(cfg)
	same := 0
	for i := range a.Samples {
		if a.Samples[i] == c.Samples[i] {
			same++
		}
	}
	if same == len(a.Samples) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSynthesizePeakToMean(t *testing.T) {
	cfg := DefaultSynth()
	cfg.Machines = 200
	tr, _ := Synthesize(cfg)
	ptm := tr.PeakToMean()
	if ptm <= 1.05 || ptm > 3 {
		t.Fatalf("peak-to-mean %g, want a meaningful oversubscription gap", ptm)
	}
}

func TestSynthValidate(t *testing.T) {
	bad := []SynthConfig{
		{Machines: 0, Hours: 1, IntervalSec: 60, MeanUtil: 0.4},
		{Machines: 10, Hours: 0, IntervalSec: 60, MeanUtil: 0.4},
		{Machines: 10, Hours: 1, IntervalSec: 60, MeanUtil: 0},
		{Machines: 10, Hours: 1, IntervalSec: 60, MeanUtil: 0.4, DiurnalAmp: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Synthesize(cfg); err == nil {
			t.Fatalf("bad config %d synthesized", i)
		}
	}
}

func TestTraceAt(t *testing.T) {
	tr := &Trace{IntervalSec: 10, Samples: []float64{0.1, 0.2, 0.3}}
	cases := []struct{ ts, want float64 }{
		{-5, 0.1}, {0, 0.1}, {9.9, 0.1}, {10, 0.2}, {25, 0.3}, {1e6, 0.3},
	}
	for _, c := range cases {
		if got := tr.At(c.ts); got != c.want {
			t.Fatalf("At(%g) = %g, want %g", c.ts, got, c.want)
		}
	}
	empty := &Trace{IntervalSec: 10}
	if empty.At(0) != 0 {
		t.Fatal("empty trace At != 0")
	}
}

func TestRateFnScalesToBase(t *testing.T) {
	tr := &Trace{IntervalSec: 1, Samples: []float64{0.2, 0.4, 0.6}}
	rate := tr.RateFn(100)
	// Mean util is 0.4, so base 100 rps maps util 0.4 → 100 rps.
	if got := rate(1); math.Abs(got-100) > 1e-9 {
		t.Fatalf("rate at mean util = %g", got)
	}
	if got := rate(2); math.Abs(got-150) > 1e-9 {
		t.Fatalf("rate at peak = %g", got)
	}
	// Degenerate trace falls back to flat base rate.
	flat := (&Trace{IntervalSec: 1}).RateFn(42)
	if flat(0) != 42 {
		t.Fatal("empty-trace rate fallback")
	}
}

func TestWindow(t *testing.T) {
	tr := &Trace{IntervalSec: 10, Samples: []float64{1, 2, 3, 4, 5, 6}}
	w := tr.Window(15, 45)
	if len(w.Samples) != 4 || w.Samples[0] != 2 || w.Samples[3] != 5 {
		t.Fatalf("window samples %v", w.Samples)
	}
	if empty := tr.Window(100, 200); len(empty.Samples) != 0 {
		t.Fatal("out-of-range window not empty")
	}
	if neg := tr.Window(30, 10); len(neg.Samples) != 0 {
		t.Fatal("inverted window not empty")
	}
}

const sampleCSV = `c_1,m_1,0,50,1.0
c_2,m_2,0,30,1.0
c_1,m_1,60,70,1.0
c_2,m_2,60,90,1.0
c_1,m_1,120,10,1.0
`

func TestLoadCSV(t *testing.T) {
	tr, err := LoadCSV(strings.NewReader(sampleCSV), 60)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Machines != 2 {
		t.Fatalf("machines %d", tr.Machines)
	}
	want := []float64{0.4, 0.8, 0.1}
	if len(tr.Samples) != len(want) {
		t.Fatalf("samples %v", tr.Samples)
	}
	for i := range want {
		if math.Abs(tr.Samples[i]-want[i]) > 1e-9 {
			t.Fatalf("sample %d = %g, want %g", i, tr.Samples[i], want[i])
		}
	}
}

func TestLoadCSVHeaderSkipped(t *testing.T) {
	in := "container_id,machine_id,time_stamp,cpu_util_percent\n" + sampleCSV
	tr, err := LoadCSV(strings.NewReader(in), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 3 {
		t.Fatalf("samples %v", tr.Samples)
	}
}

func TestLoadCSVGapHolds(t *testing.T) {
	in := "c,m,0,40,x\nc,m,180,80,x\n"
	tr, err := LoadCSV(strings.NewReader(in), 60)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0.4, 0.4, 0.8}
	for i := range want {
		if math.Abs(tr.Samples[i]-want[i]) > 1e-9 {
			t.Fatalf("gap fill %v, want %v", tr.Samples, want)
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), 60); err == nil {
		t.Fatal("empty csv accepted")
	}
	if _, err := LoadCSV(strings.NewReader(sampleCSV), 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	// Mostly-garbage numeric columns: wrong file.
	junk := "a,b,x,y,z\na,b,x,y,z\na,b,x,y,z\n"
	if _, err := LoadCSV(strings.NewReader(junk), 60); err == nil {
		t.Fatal("garbage csv accepted")
	}
	// strconv accepts NaN; a non-finite utilization is a malformed row, and
	// one bad row out of two is too many.
	if tr, err := LoadCSV(strings.NewReader("a,m,0,NaN\nb,m,1,50\n"), 1); err == nil {
		t.Fatalf("NaN utilization accepted: %v", tr.Samples)
	}
	// A far-future time stamp must not size a 1e300-interval sample slice.
	if _, err := LoadCSV(strings.NewReader("a,m,0,50\nb,m,1e300,50\n"), 1); err == nil {
		t.Fatal("1e300 s span accepted")
	}
}

func TestLoadCSVClampsUtil(t *testing.T) {
	in := "c,m,0,250,x\n" // 250% CPU on a multi-core container clamps to 1
	tr, err := LoadCSV(strings.NewReader(in), 60)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Samples[0] != 1 {
		t.Fatalf("clamp failed: %v", tr.Samples)
	}
}

func BenchmarkSynthesize(b *testing.B) {
	cfg := DefaultSynth()
	cfg.Machines = 100
	cfg.Hours = 1
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOversubscriptionReport(t *testing.T) {
	cfg := DefaultSynth()
	cfg.Machines = 200
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := tr.Oversubscription(0.45)
	if rep.MeanUtil <= 0 || rep.PeakUtil > 1 {
		t.Fatalf("util stats %+v", rep)
	}
	if rep.MeanPowerFrac >= rep.P99PowerFrac || rep.P99PowerFrac > rep.PeakPowerFrac+1e-9 {
		t.Fatalf("power fractions not ordered: %+v", rep)
	}
	// The paper's premise: the trace's safe budget is well under nameplate,
	// justifying 80-90% provisioning.
	if rep.SafeBudgetFrac >= 1 {
		t.Fatalf("no oversubscription headroom: safe budget %g", rep.SafeBudgetFrac)
	}
	if rep.SafeBudgetFrac <= rep.MeanPowerFrac {
		t.Fatal("safe budget below mean power")
	}
}

func TestOversubscriptionDegenerate(t *testing.T) {
	tr := &Trace{IntervalSec: 60, Samples: []float64{0.5, 0.5, 0.5}}
	rep := tr.Oversubscription(0.4)
	want := 0.4 + 0.6*0.5
	if math.Abs(rep.MeanPowerFrac-want) > 1e-9 || math.Abs(rep.SafeBudgetFrac-want) > 1e-9 {
		t.Fatalf("flat trace report %+v", rep)
	}
}
