// Command perfbench is the repository benchmark: the host cost of the
// simulator per simulated request on four workloads (flood, defense, chaos,
// suite), measured end to end with tracing off, plus a traced, profiled and
// observed set of passes for the per-layer view. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload flood --seed 2019 --seconds 30 --trace 0
//
// Every pass runs in a child process of its own, so each pass's peak
// resident memory is its own. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	child    string
	profile  string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: flood, defense, chaos or suite")
	fs.Uint64Var(&o.seed, "seed", 2019, "experiments.Options.Seed; every run's seed derives from it")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long the measured passes of one run last")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	fs.StringVar(&o.child, "child", "", "internal: run one pass of this kind and print it as JSON")
	fs.StringVar(&o.profile, "profile", "", "internal: CPU profile path of a profile pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	env := passEnv{w: w, root: ".", seed: o.seed, seconds: o.seconds, fingerprints: o.trace == 1}
	if o.child != "" {
		return runChild(env, o, stdout, stderr)
	}
	var (
		out *result
		err error
	)
	if o.trace == 0 {
		out, err = endToEndRun(o, w, stdout)
	} else {
		out, err = perLayerRun(o, w, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runChild executes one pass in this process and prints it as JSON.
func runChild(env passEnv, o options, stdout, stderr io.Writer) int {
	res := &passResult{Kind: o.child}
	var err error
	switch o.child {
	case "plain":
		err = env.runPlain(res, nil)
	case "account":
		err = env.runAccount(res)
	case "traced":
		err = env.runTraced(res)
	case "profile":
		err = env.runProfiled(res, o.profile)
	case "observed":
		err = env.runObserved(res)
	default:
		err = fmt.Errorf("unknown pass kind %q", o.child)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s pass: %v\n", o.child, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// childRun is a finished child pass with its process's peak memory.
type childRun struct {
	*passResult
	maxRSSMB float64
	elapsed  float64
}

// spawn runs one pass in a child process and waits for it.
func spawn(o options, kind string, extra ...string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"--child", kind, "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10), "--trace", strconv.Itoa(o.trace),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}, extra...)
	cmd := exec.Command(exe, args...)
	// A pass must not outlive the run that started it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", kind, err)
	}
	cr := &childRun{passResult: &passResult{}, elapsed: time.Since(t0).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(out.Bytes(), cr.passResult); err != nil {
		return nil, fmt.Errorf("%s pass output: %w", kind, err)
	}
	return cr, nil
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks collects failed output checks by name.
type checks []string

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// maxPasses caps a run's passes however fast they are.
const maxPasses = 200

// endToEndRun repeats untraced passes, each in its own process, until the
// run's seconds are spent (at least two, so the reports can be compared),
// and reports the medians.
func endToEndRun(o options, w workloadDef, stdout io.Writer) (*result, error) {
	start := time.Now()
	var passes []*childRun
	for len(passes) < maxPasses {
		p, err := spawn(o, "plain")
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		var took []float64
		for _, q := range passes {
			took = append(took, q.elapsed)
		}
		if len(passes) >= 2 && time.Since(start).Seconds()+median(took) > o.seconds {
			break
		}
	}
	first := passes[0].passResult
	counts := first
	if w.Suite {
		acct, err := spawn(o, "account")
		if err != nil {
			return nil, err
		}
		counts = acct.passResult
	}
	var c checks
	c.expect(counts.ReportSHA == first.ReportSHA, "account pass: report differs from pass 0 at the same seed")
	offered := float64(counts.OfferedLegit + counts.OfferedAttack)

	var (
		attempted, failed            int
		walls, setups, nsReq, allocs []float64
		rss, rawWalls, refs          []float64
	)
	for i, p := range passes {
		attempted += p.Jobs
		bad := p.FailedJobs
		for _, e := range p.Errors {
			c = append(c, fmt.Sprintf("pass %d: %s", i, e))
		}
		if p.ReportSHA != first.ReportSHA {
			c = append(c, fmt.Sprintf("pass %d: report differs from pass 0 at the same seed", i))
			bad = p.Jobs
		}
		if p.GoldenChecked && !p.GoldenMatch {
			c = append(c, fmt.Sprintf("pass %d: suite report differs from %s", i, goldenPath))
			bad = p.Jobs
		}
		c.expect(p.OfferedLegit == first.OfferedLegit && p.OfferedAttack == first.OfferedAttack &&
			p.CompletedLegit == first.CompletedLegit && p.OverJ == first.OverJ,
			"pass %d: simulated outcomes differ from pass 0 at the same seed", i)
		c.expect(!p.RefBad, "pass %d: the reference workload computed a wrong checksum", i)
		failed += bad
		// Pass timings in reference seconds (see calib.go). Set-up stays
		// in plain seconds: its short, cache-resident work barely slows in
		// the host's slow phases, so scaling it would over-correct.
		speed := ratio(refNominalS, mean(p.RefS))
		rawWalls = append(rawWalls, p.WallS)
		refs = append(refs, p.RefS...)
		walls = append(walls, p.WallS*speed)
		setups = append(setups, p.SetupS...)
		nsReq = append(nsReq, ratio(p.WallS*speed*1e9, offered))
		allocs = append(allocs, ratio(float64(p.AllocB), offered))
		rss = append(rss, p.maxRSSMB)
	}
	c.expect(offered > 0, "no simulated requests offered")

	values := map[string]float64{
		"wall_s":          median(walls),
		"setup_s":         median(setups),
		"ns_per_req":      median(nsReq),
		"alloc_b_per_req": median(allocs),
		"max_rss_mb":      median(rss),
		"failed_frac":     ratio(float64(failed), float64(attempted)),
		"sim_avail":       ratio(float64(counts.CompletedLegit), float64(counts.OfferedLegit)),
		"sim_p90_ms":      mean(counts.P90Ms),
		"checks_failed":   float64(first.ChecksFailed),
	}
	if !w.Suite {
		values["sim_over_kj"] = first.OverJ / 1e3
	}
	if first.HasPaperGap {
		values["paper_gap_pts"] = first.PaperGapPts
	}

	fmt.Fprintf(stdout, "perfbench %s (%s)\n  seed=%d trace=0: %d passes, %d jobs, %.0f simulated requests per pass\n",
		o.workload, w.Why, o.seed, len(passes), attempted, offered)
	fmt.Fprintf(stdout, "  host: wall %.4g s per pass, reference %.4g s (nominal %.4g s) over %d runs; medians; wall_s and ns_per_req below in reference seconds\n",
		median(rawWalls), median(refs), refNominalS, len(refs))
	out := &result{Correct: len(c) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		v, ok := values[m.Name]
		if !ok {
			fmt.Fprintf(stdout, "  %-16s %14s  %s\n", m.Name, "n/a", m.Unit)
			continue
		}
		fmt.Fprintf(stdout, "  %-16s %14.6g  %s\n", m.Name, v, m.Unit)
		if m.Gated {
			out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		}
	}
	printChecks(stdout, c)
	return out, nil
}

// perLayerRun makes the traced, profiled and observed passes and reports
// the per-layer metrics.
func perLayerRun(o options, w workloadDef, stdout io.Writer) (*result, error) {
	plain, err := spawn(o, "plain")
	if err != nil {
		return nil, err
	}
	traced, err := spawn(o, "traced")
	if err != nil {
		return nil, err
	}
	profDir := ".bench_build"
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(profDir, fmt.Sprintf("perfbench-%d.pprof", os.Getpid()))
	defer os.Remove(profPath)
	popts := o
	popts.seconds = o.seconds / 2
	prof, err := spawn(popts, "profile", "--profile", profPath)
	if err != nil {
		return nil, err
	}
	fold, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	observed, err := spawn(o, "observed")
	if err != nil {
		return nil, err
	}

	var c checks
	attempted, failed := 0, 0
	for _, p := range []*childRun{plain, traced, observed} {
		attempted += p.Jobs
		failed += p.FailedJobs
		for _, e := range p.Errors {
			c = append(c, fmt.Sprintf("%s pass: %s", p.Kind, e))
		}
	}
	c.expect(observed.ReportSHA == plain.ReportSHA, "observed pass: report differs from the untraced pass")
	if !w.Suite {
		c.expect(len(traced.Fingerprints) == len(plain.Fingerprints), "traced pass ran %d jobs, untraced %d",
			len(traced.Fingerprints), len(plain.Fingerprints))
		for i := range plain.Fingerprints {
			if i < len(traced.Fingerprints) && traced.Fingerprints[i] != plain.Fingerprints[i] {
				c = append(c, fmt.Sprintf("traced job %d: Result differs from the untraced pass beyond TokenDropFrac", i))
				failed++
			}
		}
	}
	var shareSum float64
	for _, m := range modules {
		shareSum += fold.Share(m)
	}
	c.expect(math.Abs(shareSum-1) < 1e-9, "module CPU shares sum to %v, not 1", shareSum)

	values := map[string]float64{}
	for _, m := range perLayer {
		values[m.Name] = 0 // not measurable on this workload; see README.md
	}
	for k, v := range traced.Layer {
		if _, ok := values[k]; !ok {
			return nil, fmt.Errorf("traced pass measured unlisted metric %q", k)
		}
		values[k] = v
	}
	offered := float64(plain.OfferedLegit + plain.OfferedAttack)
	if w.Suite {
		offered = float64(observed.Arrivals)
		values["workload.reqs"] = offered
		values["workload.attack_frac"] = ratio(float64(observed.AttackArrivals), offered)
	}
	values["runtime.mallocs_per_req"] = ratio(float64(plain.Mallocs), offered)
	values["runtime.gc_count"] = float64(plain.NumGC)
	for _, m := range modules {
		values[m+".cpu_frac"] = fold.Share(m)
	}
	values["obs.events_per_req"] = ratio(float64(observed.Events), float64(observed.Arrivals))
	values["obs.overhead_frac"] = observed.WallS/plain.WallS - 1
	values["bench.trace_overhead_frac"] = traced.WallS/plain.WallS - 1

	fmt.Fprintf(stdout, "perfbench %s (%s)\n  seed=%d trace=1: untraced %.3fs, traced %.3fs, observed %.3fs, profiled %d passes\n",
		o.workload, w.Why, o.seed, plain.WallS, traced.WallS, observed.WallS, len(prof.PassWallS))
	out := &result{Correct: len(c) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v := values[m.Name]
		fmt.Fprintf(stdout, "  %-28s %14.6g  %s\n", m.Name, v, m.Unit)
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if !w.Suite {
		printReconcile(stdout, fold, mean(prof.PassWallS), len(prof.PassWallS), traced,
			values["bench.trace_overhead_frac"])
	}
	printChecks(stdout, c)
	return out, nil
}

// foldProfile runs `go tool pprof -traces` on a CPU profile and folds it.
func foldProfile(path string) (*profileFold, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(&out)
}

// printReconcile sets the profile's view of the layers the traced pass
// times directly beside the traced spans, per pass. The core span is scaled
// down by the measured trace overhead. The defense span is an upper bound:
// each wrapped call also pays for two clock reads, which on a cheap Admit
// cost more than the call itself. Agreement allows 25% plus three profile
// samples (10 ms each) spread over the passes.
func printReconcile(w io.Writer, f *profileFold, passWall float64, passes int, traced *childRun, overhead float64) {
	fmt.Fprintf(w, "  reconcile, ms per pass (profile: %.2f CPU-s over %d passes):\n", f.Total, passes)
	n := float64(passes)
	rows := []struct {
		name           string
		profile, spans float64
		bound          bool
	}{
		{"scenario share x wall | parse+compile", f.Share("scenario") * passWall, traced.Spans["scenario"], false},
		{"core.Run inclusive | run+finish spans", f.Inclusive["core.run"] / n, traced.Spans["run"] / (1 + overhead), false},
		{"defense hooks inclusive | wrapper spans", f.Inclusive["defense.hooks"] / n, traced.Spans["defense"], true},
	}
	for _, r := range rows {
		tol := 0.25*r.spans + 0.03/n
		verdict := "agree"
		switch {
		case r.bound && r.profile <= r.spans+tol:
			verdict = "within bound"
		case r.bound || math.Abs(r.profile-r.spans) > tol:
			verdict = "DISAGREE"
		}
		fmt.Fprintf(w, "    %-40s %10.3f %10.3f  %s\n", r.name, 1e3*r.profile, 1e3*r.spans, verdict)
	}
}

func printChecks(w io.Writer, c checks) {
	if len(c) == 0 {
		fmt.Fprintln(w, "  checks: all output checks hold")
		return
	}
	sort.Strings(c)
	fmt.Fprintf(w, "  checks: %d FAILED\n    %s\n", len(c), strings.Join(c, "\n    "))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
