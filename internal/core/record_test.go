package core_test

import (
	"math"
	"runtime"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/core"
	"antidope/internal/obs"
	"antidope/internal/stats"
	"antidope/internal/workload"
)

// TestAttackFloodRecordingConstantMemory pins the result's memory to the
// legitimate traffic: an attack-only volume flood on a warm simulation must
// allocate under 1 B per offered request across Run, so the result keeps
// nothing per attack request.
func TestAttackFloodRecordingConstantMemory(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 40
	cfg.WarmupSec = 0
	cfg.NormalRPS = 0
	cfg.Firewall.Disabled = true // the unprotected rack of Figure 3
	flood := attack.Catalog()[3] // UDP-Flood, 8000 rps
	flood.Duration = cfg.Horizon
	cfg.Attacks = []attack.Spec{flood}

	sim := core.MustNew(cfg)
	sim.Run()
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := sim.Run()
	runtime.ReadMemStats(&m1)

	offered := res.OfferedLegit + res.OfferedAttack
	if res.OfferedLegit != 0 || res.CompletedAtk < offered*9/10 {
		t.Fatalf("not an attack-only flood: offered legit %d attack %d, completed attack %d",
			res.OfferedLegit, res.OfferedAttack, res.CompletedAtk)
	}
	perReq := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(offered)
	t.Logf("%d requests, %.3f B/request", offered, perReq)
	if perReq >= 1 {
		t.Fatalf("warm flood run allocated %.2f B per offered request, want < 1", perReq)
	}
}

// completionLog collects every request-complete event's response time by
// class, in emission order.
type completionLog struct {
	byClass [workload.NumClasses]stats.Sample
}

func (c *completionLog) Emit(ev obs.Event) {
	if ev.Kind == obs.KindReqComplete {
		c.byClass[ev.Class].Add(ev.B)
	}
}

// TestClassMeanRTMatchesCompletionEvents checks the per-class counters
// against the trace: with no warmup every completion is measured, and each
// class's mean equals, bit for bit, the Mean of a Sample fed the same
// response times in completion order.
func TestClassMeanRTMatchesCompletionEvents(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 30
	cfg.WarmupSec = 0
	cfg.Attacks = []attack.Spec{
		attack.HTTPLoadTool(workload.CollaFilt, 40, 16, 5, 20),
		attack.HTTPLoadTool(workload.WordCount, 60, 16, 10, 20),
	}
	rec := &completionLog{}
	cfg.Observer = rec
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		want := &rec.byClass[c]
		if got := res.CompletedByClass[c]; got != uint64(want.Len()) {
			t.Fatalf("%v: %d completions counted, %d traced", c, got, want.Len())
		}
		got := res.ClassMeanRT(c)
		if math.Float64bits(got) != math.Float64bits(want.Mean()) {
			t.Fatalf("%v: ClassMeanRT %v, traced Sample mean %v", c, got, want.Mean())
		}
		if want.Len() > 0 {
			seen++
		}
	}
	if seen < 3 {
		t.Fatalf("only %d classes completed requests, want legit plus both floods", seen)
	}
}
