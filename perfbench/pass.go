package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"antidope/internal/core"
	"antidope/internal/experiments"
	"antidope/internal/harness"
	"antidope/internal/obs"
	"antidope/internal/scenario"
	"antidope/internal/stats"
	"antidope/internal/workload"
)

// workloadDef is one benchmark workload: scenario documents run through
// scenario.Parse → scenario.Compile → experiments.RunJobs, or the whole
// quick suite through experiments.All.
type workloadDef struct {
	Name  string
	Why   string
	Files []string // scenario documents, relative to the checkout root
	Quick bool
	Suite bool
	// Unlisted workloads run on request but are left out of
	// BENCHMARK.json: too few passes fit in a run to be steady (README.md).
	Unlisted bool
}

var workloads = []workloadDef{
	{Name: "flood", Quick: true,
		Why:   "six unprotected 300-8000 rps floods; bound by event handling in simtime and server",
		Files: []string{"scenarios/fig03_attack_profiles.yaml"}},
	{Name: "defense",
		Why:   "4 schemes x 4 budgets under DOPE with the firewall on; every request crosses firewall, Scheme.Admit and netlb",
		Files: []string{"scenarios/eval_grid.yaml"}},
	{Name: "chaos",
		Why:   "link loss/latency/partitions and crashes; retries and requeues re-enter netlb and server",
		Files: []string{"scenarios/resilience_net.yaml", "scenarios/resilience_chaos.yaml"}},
	{Name: "suite", Quick: true, Suite: true, Unlisted: true,
		Why: "experiments.All quick and sequential: 162 short jobs plus capacity searches, set-up, stats and report formatting"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// goldenPath is the suite's pinned quick report at the default seed.
const goldenPath = "internal/experiments/testdata/all_quick.golden"

// setupReps is how many times each pass repeats its set-up; the parent
// reports the median over every repetition of every pass.
const setupReps = 100

// passResult is what one child process reports to the parent. Only the
// fields its pass kind fills are set.
type passResult struct {
	Kind string

	// SetupS holds one duration per set-up repetition.
	SetupS []float64
	// WallS is the timed part of the pass: every job, no set-up.
	WallS float64
	// RefS holds the reference workload's run times next to the timed
	// part (see calib.go); RefBad is set when a reference run computed
	// the wrong checksum.
	RefS   []float64
	RefBad bool
	// PassWallS holds one wall time per pass when a child loops.
	PassWallS []float64

	Jobs, FailedJobs int
	Errors           []string
	ReportSHA        string
	GoldenChecked    bool
	GoldenMatch      bool

	// Simulated requests offered (post-warmup Result counts, or every
	// arrival on suite) and the allocation counters of the timed part.
	OfferedLegit, OfferedAttack uint64
	AllocB, Mallocs             uint64
	NumGC                       uint32

	// Simulated-time outcomes.
	CompletedLegit uint64
	P90Ms          []float64
	OverJ          float64
	ChecksFailed   int
	PaperGapPts    float64
	HasPaperGap    bool

	// Fingerprints hash every Result field except TokenDropFrac, per job.
	Fingerprints []string
	// TokenDropFrac is each job's TokenDropFrac, from the same pass.
	TokenDropFrac []float64

	// Layer holds per-layer metrics measured inside the pass.
	Layer map[string]float64
	// Spans are internal totals the reconciliation compares with the
	// profile: seconds per pass.
	Spans map[string]float64

	// JobRuntimesS are the harness.Telemetry job runtimes.
	JobRuntimesS []float64
	// Events and arrivals are counted by the observer pass.
	Events, Arrivals, AttackArrivals uint64
}

// passEnv carries what every pass needs.
type passEnv struct {
	w    workloadDef
	root string
	seed uint64
	// seconds bounds how long a looping pass (profile) keeps going.
	seconds float64
	// fingerprints makes account record every job's Result fingerprint
	// (the untraced pass of a --trace 1 run).
	fingerprints bool
}

func (e passEnv) options() experiments.Options {
	return experiments.Options{Seed: e.seed, Quick: e.w.Quick, Parallel: 1}
}

// loadPlans reads, parses and compiles every scenario of the workload. The
// spans, when non-nil, receive the parse and compile durations.
func (e passEnv) loadPlans(spans map[string]float64) ([]*scenario.Plan, error) {
	var plans []*scenario.Plan
	for _, f := range e.w.Files {
		t0 := time.Now()
		data, err := os.ReadFile(filepath.Join(e.root, f))
		if err != nil {
			return nil, err
		}
		s, err := scenario.Parse(filepath.Base(f), data)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		plan, err := scenario.Compile(s, e.options())
		if err != nil {
			return nil, err
		}
		if spans != nil {
			spans["parse"] += t1.Sub(t0).Seconds()
			spans["compile"] += time.Since(t1).Seconds()
		}
		plans = append(plans, plan)
	}
	return plans, nil
}

// setupOnce times one scenario set-up: file read, Parse, Compile and the
// first core.New, i.e. everything before the first simulated event.
func (e passEnv) setupOnce() (float64, error) {
	t0 := time.Now()
	plans, err := e.loadPlans(nil)
	if err != nil {
		return 0, err
	}
	if _, err := core.New(plans[0].Jobs[0].Config); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// errFirstJob aborts experiments.All once its first harness job is about
// to begin; setupSuite recovers it.
var errFirstJob = errors.New("first harness job reached")

// setupSuite times the suite's set-up: everything experiments.All does
// before its first harness job begins. The Observe hook runs right before
// the first pool run; it panics to stop the suite there.
func (e passEnv) setupSuite() (d float64, err error) {
	o := e.options()
	var t0 time.Time
	o.Observe = func(string) obs.Observer {
		d = time.Since(t0).Seconds()
		panic(errFirstJob)
	}
	defer func() {
		if r := recover(); r != nil {
			if r != errFirstJob {
				panic(r)
			}
			return
		}
		err = errors.New("suite ran no harness job")
	}()
	t0 = time.Now()
	_ = experiments.All(o, io.Discard)
	return d, err
}

// memDelta runs fn between two MemStats reads and records the allocation
// counters of that span into res.
func memDelta(res *passResult, fn func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	res.AllocB = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.NumGC = m1.NumGC - m0.NumGC
}

// measure runs fn, the timed part of a pass, between two MemStats reads,
// and times the reference workload (calib.go) once before it and, after
// it, until the reference has run for refShare of the pass's wall time.
func measure(res *passResult, fn func()) {
	ref := func() float64 {
		d, ok := referenceSeconds()
		res.RefS = append(res.RefS, d)
		res.RefBad = res.RefBad || !ok
		return d
	}
	ref()
	memDelta(res, fn)
	for spent := 0.0; spent < refShare*res.WallS; {
		spent += ref()
	}
}

// runPlain is one production pass with tracing off: set-up repetitions,
// then every job once, timed. With tele set, a harness.Telemetry records
// per-job runtimes (the traced pass uses this).
func (e passEnv) runPlain(res *passResult, tele *harness.Telemetry) error {
	if e.w.Suite {
		return e.runSuite(res, tele)
	}
	for k := 0; k < setupReps; k++ {
		d, err := e.setupOnce()
		if err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, d)
	}
	plans, err := e.loadPlans(nil)
	if err != nil {
		return err
	}
	o := e.options()
	o.Telemetry = tele
	results := make([][]*core.Result, len(plans))
	errs := make([]error, len(plans))
	measure(res, func() {
		t0 := time.Now()
		for i, p := range plans {
			results[i], errs[i] = experiments.RunJobs(o, p.Jobs)
		}
		res.WallS = time.Since(t0).Seconds()
	})
	e.account(res, plans, results, errs)
	return nil
}

// account checks and summarizes a scenario pass's results: job errors,
// per-origin conservation, the rendered report and the simulated-time
// outcomes.
func (e passEnv) account(res *passResult, plans []*scenario.Plan, results [][]*core.Result, errs []error) {
	var report bytes.Buffer
	for i, p := range plans {
		res.Jobs += len(p.Jobs)
		if errs[i] != nil {
			res.FailedJobs += len(p.Jobs)
			res.Errors = append(res.Errors, errs[i].Error())
			continue
		}
		for j, r := range results[i] {
			if r.CompletedLegit+r.DroppedLegit > r.OfferedLegit ||
				r.CompletedAtk+r.DroppedAttack > r.OfferedAttack {
				res.FailedJobs++
				res.Errors = append(res.Errors, fmt.Sprintf(
					"%s: completed+dropped exceeds offered (legit %d+%d/%d, attack %d+%d/%d)",
					p.Jobs[j].Label, r.CompletedLegit, r.DroppedLegit, r.OfferedLegit,
					r.CompletedAtk, r.DroppedAttack, r.OfferedAttack))
			}
			res.OfferedLegit += r.OfferedLegit
			res.OfferedAttack += r.OfferedAttack
			res.CompletedLegit += r.CompletedLegit
			res.OverJ += r.OverBudgetJ
			res.P90Ms = append(res.P90Ms, 1e3*r.TailRT(90))
			if e.fingerprints {
				res.Fingerprints = append(res.Fingerprints, fingerprint(r, true))
				res.TokenDropFrac = append(res.TokenDropFrac, r.TokenDropFrac)
			}
		}
		rep := scenario.Report(p, results[i])
		rep.Fprint(&report)
		res.ChecksFailed += rep.Failed()
		if gap, ok := paperGap(p, results[i]); ok {
			res.PaperGapPts, res.HasPaperGap = gap, true
		}
	}
	sum := sha256.Sum256(report.Bytes())
	res.ReportSHA = hex.EncodeToString(sum[:])
}

// paperGap is the mean absolute gap, in percentage points, between the
// measured and the published headline gains: Anti-DOPE's mean-RT and p90
// improvement over the better of Capping and Shaving, averaged over the
// High, Medium and Low budgets (experiments.EvalGrid.Headline). The paper
// reports 44% and 68.1%. ok is false for a plan without that grid.
func paperGap(p *scenario.Plan, results []*core.Result) (gap float64, ok bool) {
	by := map[string]*core.Result{}
	for i, m := range p.Metas {
		by[strings.ToLower(m.Scheme)+"/"+m.Budget] = results[i]
	}
	var meanSum, p90Sum float64
	for _, b := range []string{"High-PB", "Medium-PB", "Low-PB"} {
		c, s, a := by["capping/"+b], by["shaving/"+b], by["anti-dope/"+b]
		if c == nil || s == nil || a == nil {
			return 0, false
		}
		otherMean := min(c.MeanRT(), s.MeanRT())
		otherP90 := min(c.TailRT(90), s.TailRT(90))
		if otherMean > 0 {
			meanSum += 1 - a.MeanRT()/otherMean
		}
		if otherP90 > 0 {
			p90Sum += 1 - a.TailRT(90)/otherP90
		}
	}
	meanPct, p90Pct := 100*meanSum/3, 100*p90Sum/3
	return (math.Abs(meanPct-44) + math.Abs(p90Pct-68.1)) / 2, true
}

// falseCheck matches a failed boolean on one of the suite's check lines.
var falseCheck = regexp.MustCompile(`\bfalse\b`)

// runSuite is runPlain for the suite: set-up repetitions up to the first
// harness job, then one whole sequential quick suite, timed.
func (e passEnv) runSuite(res *passResult, tele *harness.Telemetry) error {
	for k := 0; k < setupReps; k++ {
		d, err := e.setupSuite()
		if err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, d)
	}
	o := e.options()
	o.Telemetry = tele
	o.Observe = func(string) obs.Observer {
		res.Jobs++
		return nil
	}
	var report bytes.Buffer
	var err error
	measure(res, func() {
		t0 := time.Now()
		err = experiments.All(o, &report)
		res.WallS = time.Since(t0).Seconds()
	})
	if err != nil {
		// All names each failed group once; count a group as one job.
		res.FailedJobs += 1 + strings.Count(err.Error(), "\n")
		res.Errors = append(res.Errors, err.Error())
	}
	for _, line := range strings.Split(report.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "check:") {
			res.ChecksFailed += len(falseCheck.FindAllString(line, -1))
		}
	}
	sum := sha256.Sum256(report.Bytes())
	res.ReportSHA = hex.EncodeToString(sum[:])
	if e.seed == experiments.DefaultOptions().Seed {
		want, rerr := os.ReadFile(filepath.Join(e.root, goldenPath))
		if rerr != nil {
			return rerr
		}
		res.GoldenChecked = true
		res.GoldenMatch = bytes.Equal(want, report.Bytes())
	}
	return nil
}

// suiteAccount counts the suite's simulated requests from the outside:
// experiments.All returns no core.Result, so an observer on every harness
// job counts arrivals by origin and legitimate completions, and keeps each
// job's legitimate sojourn times for its p90. Unlike the scenario
// workloads, these counts include warmup arrivals.
type suiteAccount struct {
	cur *jobAccount
	res *passResult
}

type jobAccount struct {
	acct                *suiteAccount
	legitIDs            []uint64 // bitset of legitimate request IDs
	offLegit, offAttack uint64
	doneLegit           uint64
	sojourn             stats.Sample
	begun               bool
}

// BeginRun is called by core at Start (again on a harness retry). Jobs run
// one at a time, so a new run closes the books on the previous job.
func (j *jobAccount) BeginRun() {
	if a := j.acct; a.cur != j {
		a.close()
		a.cur = j
	}
	*j = jobAccount{acct: j.acct, legitIDs: j.legitIDs[:0], begun: true}
}

func (j *jobAccount) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindReqArrive:
		if workload.Origin(ev.A) != workload.Legit {
			j.offAttack++
			return
		}
		j.offLegit++
		w := int(ev.ID / 64)
		for len(j.legitIDs) <= w {
			j.legitIDs = append(j.legitIDs, 0)
		}
		j.legitIDs[w] |= 1 << (ev.ID % 64)
	case obs.KindReqComplete:
		if w := int(ev.ID / 64); w < len(j.legitIDs) && j.legitIDs[w]&(1<<(ev.ID%64)) != 0 {
			j.doneLegit++
			j.sojourn.Add(ev.B)
		}
	}
}

// close folds the current job into the pass totals.
func (a *suiteAccount) close() {
	j := a.cur
	if j == nil || !j.begun {
		return
	}
	a.res.OfferedLegit += j.offLegit
	a.res.OfferedAttack += j.offAttack
	a.res.CompletedLegit += j.doneLegit
	a.res.P90Ms = append(a.res.P90Ms, 1e3*j.sojourn.Percentile(90))
	a.cur = nil
}

// runAccount runs the suite once under suiteAccount. It is untimed: its
// counts turn the timed passes' wall time and allocations into per-request
// figures.
func (e passEnv) runAccount(res *passResult) error {
	acct := &suiteAccount{res: res}
	o := e.options()
	o.Observe = func(string) obs.Observer { return &jobAccount{acct: acct} }
	var report bytes.Buffer
	err := experiments.All(o, &report)
	acct.close()
	sum := sha256.Sum256(report.Bytes())
	res.ReportSHA = hex.EncodeToString(sum[:])
	return err
}

// boundedBus is an obs.Bus whose recorded events are discarded every
// busFlushEvents, so the observer pass keeps every cost of a real capture
// (event recording and metric folding) in bounded memory. It also counts
// events and request arrivals.
type boundedBus struct {
	*obs.Bus
	res *passResult
}

const busFlushEvents = 1 << 18

func (b boundedBus) Emit(ev obs.Event) {
	b.Bus.Emit(ev)
	b.res.Events++
	if ev.Kind == obs.KindReqArrive {
		b.res.Arrivals++
		if workload.Origin(ev.A) != workload.Legit {
			b.res.AttackArrivals++
		}
	}
	if b.Bus.Events().Len() >= busFlushEvents {
		b.Bus.Events().Reset()
	}
}

// runObserved is one production pass with an obs.NewBus installed on every
// job through Options.Observe.
func (e passEnv) runObserved(res *passResult) error {
	o := e.options()
	o.Observe = func(string) obs.Observer {
		return boundedBus{Bus: obs.NewBus(), res: res}
	}
	var report bytes.Buffer
	var err error
	if e.w.Suite {
		t0 := time.Now()
		err = experiments.All(o, &report)
		res.WallS = time.Since(t0).Seconds()
		sum := sha256.Sum256(report.Bytes())
		res.ReportSHA = hex.EncodeToString(sum[:])
		return err
	}
	plans, err := e.loadPlans(nil)
	if err != nil {
		return err
	}
	results := make([][]*core.Result, len(plans))
	errs := make([]error, len(plans))
	t0 := time.Now()
	for i, p := range plans {
		results[i], errs[i] = experiments.RunJobs(o, p.Jobs)
	}
	res.WallS = time.Since(t0).Seconds()
	e.account(res, plans, results, errs)
	return nil
}

// runProfiled repeats untraced production passes under the CPU profiler
// until e.seconds have passed (at least one pass), writing the profile to
// path. Each loop covers set-up, jobs and report, as a user's run would.
func (e passEnv) runProfiled(res *passResult, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	start := time.Now()
	for len(res.PassWallS) == 0 || time.Since(start).Seconds() < e.seconds {
		t0 := time.Now()
		if e.w.Suite {
			err = experiments.All(e.options(), io.Discard)
		} else {
			var plans []*scenario.Plan
			plans, err = e.loadPlans(nil)
			for _, p := range plans {
				if err != nil {
					break
				}
				var rs []*core.Result
				if rs, err = experiments.RunJobs(e.options(), p.Jobs); err == nil {
					scenario.Report(p, rs).Fprint(io.Discard)
				}
			}
		}
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		res.PassWallS = append(res.PassWallS, time.Since(t0).Seconds())
	}
	pprof.StopCPUProfile()
	return f.Close()
}

// runTraced is the traced pass. It runs the production path once with a
// harness.Telemetry attached (the harness.* metrics), then, for scenario
// workloads, replays every job through core's public calls with a span
// around each and a timedScheme installed in Config.Scheme.
func (e passEnv) runTraced(res *passResult) error {
	tele := harness.NewTelemetry()
	var tres passResult
	if err := e.runPlain(&tres, tele); err != nil {
		return err
	}
	teleWall := tres.WallS
	res.Jobs, res.FailedJobs, res.Errors = tres.Jobs, tres.FailedJobs, tres.Errors
	res.Layer = map[string]float64{}
	var covered float64
	for _, r := range tele.Records() {
		res.JobRuntimesS = append(res.JobRuntimesS, r.RuntimeS)
		covered += r.RuntimeS
	}
	res.Layer["harness.jobs"] = float64(len(res.JobRuntimesS))
	res.Layer["harness.job_p50_ms"] = 1e3 * quantile(res.JobRuntimesS, 0.5)
	res.Layer["harness.job_p90_ms"] = 1e3 * quantile(res.JobRuntimesS, 0.9)
	res.Layer["harness.unaccounted_frac"] = 1 - ratio(covered, teleWall)
	if e.w.Suite {
		// The suite builds its schemes and simulations inside
		// experiments.All; its only outside-in trace is the harness.
		res.WallS = teleWall
		return nil
	}
	return e.replay(res)
}

// replay is the direct-call half of the traced pass.
func (e passEnv) replay(res *passResult) error {
	res.Spans = map[string]float64{}
	plans, err := e.loadPlans(res.Spans)
	if err != nil {
		return err
	}
	var (
		newUs, runMs, finishUs []float64
		n                      struct {
			offered, attack, suspect, retried, lost, requeued float64
			dischargeJ, cycles, slotsOver                     float64
			fwObserved, fwDropped, fwBans                     float64
			svDone, svRejected, svFreq                        float64
			admitCalls, admitRefused, admitNs                 float64
			slotCalls, slotNs, inflightSum, inflightN         float64
		}
	)
	for _, p := range plans {
		for _, job := range p.Jobs {
			cfg := job.Config
			ts := &timedScheme{inner: cfg.Scheme}
			cfg.Scheme = ts
			t0 := time.Now()
			sim, err := core.New(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", job.Label, err)
			}
			t1 := time.Now()
			sim.Start()
			sim.RunTo(cfg.Horizon)
			t2 := time.Now()
			r := sim.Finish()
			t3 := time.Now()
			res.WallS += t3.Sub(t0).Seconds()
			res.Spans["run"] += t3.Sub(t1).Seconds()
			newUs = append(newUs, 1e6*t1.Sub(t0).Seconds())
			runMs = append(runMs, 1e3*t2.Sub(t1).Seconds())
			finishUs = append(finishUs, 1e6*t3.Sub(t2).Seconds())
			res.Fingerprints = append(res.Fingerprints, fingerprint(r, true))
			res.TokenDropFrac = append(res.TokenDropFrac, r.TokenDropFrac)

			fw := sim.Firewall()
			n.fwObserved += float64(fw.Observed())
			n.fwDropped += float64(fw.Dropped())
			n.fwBans += float64(fw.Bans())
			for _, sv := range sim.Cluster().Servers {
				n.svDone += float64(sv.Completed())
				n.svRejected += float64(sv.Rejected())
				n.svFreq += float64(sv.FreqChanges())
			}
			n.offered += float64(r.OfferedLegit + r.OfferedAttack)
			n.attack += float64(r.OfferedAttack)
			n.suspect += float64(r.SuspectRouted)
			n.retried += float64(r.NetRetried)
			n.lost += float64(r.NetLost)
			n.requeued += float64(r.CrashRequeued)
			n.dischargeJ += r.BatteryEnergyJ
			n.cycles += float64(r.BatteryCycles)
			n.slotsOver += r.FracSlotsOverBudget * float64(ts.slotCalls)
			n.admitCalls += float64(ts.admitCalls)
			n.admitRefused += float64(ts.admitRefused)
			n.admitNs += float64(ts.admitNs)
			n.slotCalls += float64(ts.slotCalls)
			n.slotNs += float64(ts.slotNs)
			n.inflightSum += float64(ts.inflightSum)
			n.inflightN += float64(ts.inflightN)
		}
	}
	res.Spans["defense"] = (n.admitNs + n.slotNs) / 1e9
	res.Spans["scenario"] = res.Spans["parse"] + res.Spans["compile"]
	L := res.Layer
	L["scenario.parse_us"] = 1e6 * res.Spans["parse"]
	L["scenario.compile_us"] = 1e6 * res.Spans["compile"]
	L["core.new_us"] = median(newUs)
	L["core.run_ms"] = median(runMs)
	L["core.finish_us"] = median(finishUs)
	L["defense.admit_calls"] = n.admitCalls
	L["defense.admit_ns"] = ratio(n.admitNs, n.admitCalls)
	L["defense.admit_refused_frac"] = ratio(n.admitRefused, n.admitCalls)
	L["defense.slot_calls"] = n.slotCalls
	L["defense.slot_us"] = ratio(n.slotNs/1e3, n.slotCalls)
	L["workload.reqs"] = n.offered
	L["workload.attack_frac"] = ratio(n.attack, n.offered)
	L["firewall.observed"] = n.fwObserved
	L["firewall.drop_frac"] = ratio(n.fwDropped, n.fwObserved)
	L["firewall.bans"] = n.fwBans
	L["netlb.suspect_frac"] = ratio(n.suspect, n.offered)
	L["server.completed"] = n.svDone
	L["server.reject_frac"] = ratio(n.svRejected, n.svDone+n.svRejected)
	L["server.freq_changes"] = n.svFreq
	L["server.inflight_mean"] = ratio(n.inflightSum, n.inflightN)
	L["battery.discharge_kj"] = n.dischargeJ / 1e3
	L["battery.cycles"] = n.cycles
	L["cluster.slots_over_frac"] = ratio(n.slotsOver, n.slotCalls)
	L["core.net_retry_frac"] = ratio(n.retried, n.offered)
	L["core.net_lost"] = n.lost
	L["core.crash_requeued"] = n.requeued
	return nil
}
