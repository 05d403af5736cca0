package server

import (
	"math"
	"testing"
	"testing/quick"

	"antidope/internal/power"
	"antidope/internal/rng"
	"antidope/internal/workload"
)

func testServer() *Server {
	return MustNew(Config{ID: 0, Cores: 4, MaxInflight: 64, Model: power.DefaultModel()})
}

func mkReq(f *workload.Factory, now float64, c workload.Class) *workload.Request {
	return f.New(now, c, workload.Legit, 1)
}

func fixedReq(id uint64, c workload.Class, demand float64) *workload.Request {
	return &workload.Request{ID: id, Class: c, Demand: demand, Remaining: demand}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Cores: 0, MaxInflight: 1, Model: power.DefaultModel()}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(Config{Cores: 1, MaxInflight: 0, Model: power.DefaultModel()}); err == nil {
		t.Fatal("zero inflight accepted")
	}
	if _, err := New(Config{Cores: 1, MaxInflight: 1}); err == nil {
		t.Fatal("zero model accepted")
	}
}

func TestSingleRequestCompletesOnTime(t *testing.T) {
	s := testServer()
	r := fixedReq(1, workload.CollaFilt, 0.1) // beta=1, fmax: 0.1 s exactly
	s.Advance(0)
	if !s.Admit(0, r) {
		t.Fatal("admit failed")
	}
	at, ok := s.NextCompletion()
	if !ok || math.Abs(at-0.1) > 1e-9 {
		t.Fatalf("next completion %g, want 0.1", at)
	}
	done := s.Advance(at)
	if len(done) != 1 || done[0] != r {
		t.Fatalf("done %v", done)
	}
	if math.Abs(r.ResponseTime()-0.1) > 1e-9 {
		t.Fatalf("response time %g", r.ResponseTime())
	}
	if s.Inflight() != 0 || s.Completed() != 1 {
		t.Fatal("bookkeeping wrong after completion")
	}
}

func TestFrequencyStretchesService(t *testing.T) {
	s := testServer()
	r := fixedReq(1, workload.CollaFilt, 0.12) // beta = 1
	s.Advance(0)
	s.Admit(0, r)
	s.CapFreq(1.2) // half speed for beta=1
	at, ok := s.NextCompletion()
	if !ok || math.Abs(at-0.24) > 1e-6 {
		t.Fatalf("completion at %g, want 0.24", at)
	}
}

func TestBetaDampensSlowdown(t *testing.T) {
	// K-means (beta 0.55) must slow down less than Colla-Filt (beta 1.0)
	// for the same frequency cut.
	mk := func(c workload.Class) float64 {
		s := testServer()
		r := fixedReq(1, c, 0.1)
		s.Advance(0)
		s.Admit(0, r)
		s.CapFreq(1.2)
		at, _ := s.NextCompletion()
		return at / 0.1 // slowdown factor vs demand at fmax
	}
	if mk(workload.KMeans) >= mk(workload.CollaFilt) {
		t.Fatal("memory-bound class slowed down as much as compute-bound")
	}
}

func TestProcessorSharingBeyondCores(t *testing.T) {
	s := testServer() // 4 cores
	s.Advance(0)
	for i := 0; i < 8; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 0.1))
	}
	// 8 requests share 4 cores: each runs at 1/2 speed.
	at, _ := s.NextCompletion()
	if math.Abs(at-0.2) > 1e-9 {
		t.Fatalf("PS completion %g, want 0.2", at)
	}
	if got := s.Utilization(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("utilization %g, want 1", got)
	}
}

func TestUnderloadedEachRequestOwnCore(t *testing.T) {
	s := testServer()
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.CollaFilt, 0.1))
	s.Admit(0, fixedReq(2, workload.CollaFilt, 0.3))
	if got := s.Utilization(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("utilization %g, want 0.5", got)
	}
	done := s.Advance(0.1)
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("wrong completion %v", done)
	}
}

func TestAdmissionBound(t *testing.T) {
	s := MustNew(Config{Cores: 1, MaxInflight: 2, Model: power.DefaultModel()})
	s.Advance(0)
	a := fixedReq(1, workload.TextCont, 1)
	b := fixedReq(2, workload.TextCont, 1)
	c := fixedReq(3, workload.TextCont, 1)
	if !s.Admit(0, a) || !s.Admit(0, b) {
		t.Fatal("admission failed below bound")
	}
	if s.Admit(0, c) {
		t.Fatal("admission above bound")
	}
	if !c.Dropped || c.DropReason == "" {
		t.Fatal("rejected request not marked dropped")
	}
	if s.Rejected() != 1 {
		t.Fatalf("rejected %d", s.Rejected())
	}
}

func TestAdmitWithoutAdvancePanics(t *testing.T) {
	s := testServer()
	defer func() {
		if recover() == nil {
			t.Fatal("admit without advance did not panic")
		}
	}()
	s.Admit(5, fixedReq(1, workload.TextCont, 1))
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	s := testServer()
	s.Advance(5)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards advance did not panic")
		}
	}()
	s.Advance(1)
}

func TestPowerIdleAndLoaded(t *testing.T) {
	s := testServer()
	idle := s.PowerNow()
	if math.Abs(idle-s.Model.Idle(s.Freq())) > 1e-9 {
		t.Fatalf("idle power %g", idle)
	}
	s.Advance(0)
	for i := 0; i < 4; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 10))
	}
	loaded := s.PowerNow()
	if math.Abs(loaded-s.Model.Nameplate) > 1e-6 {
		t.Fatalf("saturated Colla-Filt power %g, want nameplate %g", loaded, s.Model.Nameplate)
	}
}

func TestPowerAtPrediction(t *testing.T) {
	s := testServer()
	s.Advance(0)
	for i := 0; i < 4; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 10))
	}
	lo := s.PowerAt(1.2)
	hi := s.PowerAt(2.4)
	if lo >= hi {
		t.Fatalf("PowerAt not monotone: %g >= %g", lo, hi)
	}
	if math.Abs(hi-s.PowerNow()) > 1e-9 {
		t.Fatal("PowerAt(fmax) != PowerNow at fmax")
	}
}

// TestPowerNowTracksCachedLadderIndex walks a loaded server through every
// ladder level, an off-grid cap, and a crash/recover, checking that
// PowerNow (served from the cached ladder index) stays bit-identical to
// PowerAt(Freq()) (which re-derives the index from the frequency).
func TestPowerNowTracksCachedLadderIndex(t *testing.T) {
	s := testServer()
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.CollaFilt, 10))
	s.Admit(0, fixedReq(2, workload.KMeans, 10))
	check := func(what string) {
		t.Helper()
		if got, want := s.PowerNow(), s.PowerAt(s.Freq()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: PowerNow = %v, PowerAt(%v) = %v", what, got, s.Freq(), want)
		}
	}
	check("new")
	for i := s.Model.Ladder.Levels() - 1; i >= 0; i-- {
		s.CapFreq(s.Model.Ladder.Level(i))
		check("level")
	}
	s.CapFreq(s.Model.Ladder.Level(2) + 0.03)
	check("off-grid cap")
	s.Crash(0)
	s.Advance(1)
	s.Recover(1)
	check("recover")
}

func TestEnergyIntegration(t *testing.T) {
	s := testServer()
	s.Advance(10) // idle for 10 s at fmax
	want := s.Model.Idle(2.4) * 10
	if math.Abs(s.EnergyJ()-want) > 1e-6 {
		t.Fatalf("energy %g, want %g", s.EnergyJ(), want)
	}
}

func TestVersionBumps(t *testing.T) {
	s := testServer()
	v0 := s.Version()
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.TextCont, 0.1))
	if s.Version() == v0 {
		t.Fatal("admit did not bump version")
	}
	v1 := s.Version()
	s.CapFreq(1.8)
	if s.Version() == v1 {
		t.Fatal("freq change did not bump version")
	}
	v2 := s.Version()
	s.CapFreq(1.8) // no-op
	if s.Version() != v2 {
		t.Fatal("no-op freq change bumped version")
	}
	at, _ := s.NextCompletion()
	s.Advance(at)
	if s.Version() == v2 {
		t.Fatal("completion did not bump version")
	}
}

func TestFreqChangeMidFlight(t *testing.T) {
	s := testServer()
	r := fixedReq(1, workload.CollaFilt, 0.2)
	s.Advance(0)
	s.Admit(0, r)
	s.Advance(0.1) // half done at fmax
	s.CapFreq(1.2) // half speed for the rest
	at, _ := s.NextCompletion()
	if math.Abs(at-0.3) > 1e-6 {
		t.Fatalf("completion %g, want 0.3 (0.1 fast + 0.2 slow)", at)
	}
}

func TestClassCounts(t *testing.T) {
	s := testServer()
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.CollaFilt, 1))
	s.Admit(0, fixedReq(2, workload.CollaFilt, 1))
	s.Admit(0, fixedReq(3, workload.KMeans, 1))
	counts := s.ClassCounts()
	if counts[workload.CollaFilt] != 2 || counts[workload.KMeans] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestDrainDeadline(t *testing.T) {
	s := MustNew(Config{Cores: 2, MaxInflight: 16, Model: power.DefaultModel()})
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.CollaFilt, 0.4))
	s.Admit(0, fixedReq(2, workload.CollaFilt, 0.4))
	// 0.8 core-seconds over 2 cores at fmax = 0.4 s.
	if got := s.DrainDeadline(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("drain %g, want 0.4", got)
	}
	idle := testServer()
	if idle.DrainDeadline() != 0 {
		t.Fatal("idle drain != 0")
	}
}

func TestFactoryIntegration(t *testing.T) {
	f := workload.NewFactory(rng.New(1))
	s := testServer()
	now := 0.0
	s.Advance(now)
	for i := 0; i < 32; i++ {
		r := mkReq(f, now, workload.AliNormal)
		if !s.Admit(now, r) {
			t.Fatal("admit failed")
		}
		at, ok := s.NextCompletion()
		if !ok {
			t.Fatal("no completion scheduled")
		}
		now = at
		s.Advance(now)
	}
	if s.Completed() == 0 {
		t.Fatal("nothing completed")
	}
}

// Property: work conservation — total demand admitted equals demand served
// plus demand still in flight, for any schedule of advances.
func TestQuickWorkConservation(t *testing.T) {
	f := func(steps []uint8) bool {
		s := testServer()
		now := 0.0
		s.Advance(now)
		admitted := 0.0
		served := 0.0
		id := uint64(0)
		for _, st := range steps {
			if st%3 == 0 {
				id++
				d := float64(st%10)/100 + 0.01
				r := fixedReq(id, workload.VictimClasses()[int(st)%4], d)
				if s.Admit(now, r) {
					admitted += d
				}
			} else {
				now += float64(st%7)/50 + 0.001
				for _, r := range s.Advance(now) {
					served += r.Demand
				}
			}
		}
		inflight := 0.0
		// Finish everything off.
		for {
			at, ok := s.NextCompletion()
			if !ok {
				break
			}
			now = at
			for _, r := range s.Advance(now) {
				inflight += r.Demand
			}
		}
		return math.Abs(admitted-(served+inflight)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: power stays within [idle(fmin), nameplate] at every operating
// point reachable by arbitrary admits and caps.
func TestQuickPowerEnvelope(t *testing.T) {
	f := func(ops []uint8) bool {
		s := testServer()
		now := 0.0
		s.Advance(now)
		id := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				id++
				s.Admit(now, fixedReq(id, workload.Class(int(op)%workload.NumClasses), 0.5))
			case 1:
				s.CapFreq(s.Model.Ladder.Level(int(op) % 13))
			case 2:
				now += 0.01
				s.Advance(now)
			}
			p := s.PowerNow()
			if p < s.Model.Idle(s.Model.Ladder.Min)-1e-9 || p > s.Model.Nameplate+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdvanceLoaded(b *testing.B) {
	s := testServer()
	s.Advance(0)
	for i := 0; i < 50; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 1e12))
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.001
		s.Advance(now)
	}
}

func TestFailAllDropsEverything(t *testing.T) {
	s := testServer()
	s.Advance(0)
	for i := 0; i < 5; i++ {
		s.Admit(0, fixedReq(uint64(i+1), workload.CollaFilt, 1))
	}
	v := s.Version()
	failed := s.FailAll(0)
	if len(failed) != 5 {
		t.Fatalf("failed %d, want 5", len(failed))
	}
	for _, r := range failed {
		if !r.Dropped || r.DropReason != "outage" {
			t.Fatal("failed request not marked as outage")
		}
	}
	if s.Inflight() != 0 {
		t.Fatal("inflight after FailAll")
	}
	if s.Version() == v {
		t.Fatal("FailAll did not bump version")
	}
	if s.Rejected() != 5 {
		t.Fatalf("rejected counter %d", s.Rejected())
	}
	// Power back to idle.
	if got := s.PowerNow(); got != s.Model.Idle(s.Freq()) {
		t.Fatalf("power %g after FailAll", got)
	}
	// Server is reusable.
	if !s.Admit(0, fixedReq(99, workload.TextCont, 0.1)) {
		t.Fatal("server unusable after FailAll")
	}
}

func TestFailAllEmptyIsNoop(t *testing.T) {
	s := testServer()
	s.Advance(1)
	v := s.Version()
	if got := s.FailAll(1); got != nil {
		t.Fatalf("FailAll on idle server returned %v", got)
	}
	if s.Version() != v {
		t.Fatal("no-op FailAll bumped version")
	}
}

func TestFailAllWithoutAdvancePanics(t *testing.T) {
	s := testServer()
	defer func() {
		if recover() == nil {
			t.Fatal("FailAll without advance did not panic")
		}
	}()
	s.FailAll(5)
}
