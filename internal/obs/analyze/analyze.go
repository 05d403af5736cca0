// Package analyze derives the paper-level temporal signals from a captured
// event stream: detection start-lag (attack window open to first defense
// actuation), peak-overshoot area and longest excursion over the breaker
// limit, the DVFS issued-versus-landed latency distribution, and per-link
// retry-storm windows. The input is the obs event stream — live from a
// Bus's recorder or replayed from a CSV archive — and the analysis is a
// pure function of (events, config), so two runs over the same capture are
// byte-identical all the way to the rendered report.
package analyze

import (
	"math"
	"sort"

	"antidope/internal/obs"
)

// Config parameterizes the analysis.
type Config struct {
	// BreakerLimitW is the power threshold of the overshoot analysis
	// (normally the run's utility budget in watts); <= 0 disables it.
	BreakerLimitW float64
	// WindowSec is the retry-storm window width; <= 0 selects the
	// timeline default (1 s).
	WindowSec float64
	// StormRetries is the per-link per-window retry count at which a
	// window counts as storming; 0 selects the default of 5.
	StormRetries uint64
}

func (c Config) defaults() Config {
	if c.WindowSec <= 0 {
		c.WindowSec = obs.DefaultTimelineWindowSec
	}
	if c.StormRetries == 0 {
		c.StormRetries = 5
	}
	return c
}

// Attack is one ground-truth attack window reconstructed from the
// attack-on/attack-off markers.
type Attack struct {
	Label   string
	Class   int32
	StartS  float64
	EndS    float64 // NaN when the window never closed before the horizon
	RateRPS float64
}

// Detection holds the start-lag signal: the earliest attack start and the
// first actuation of each defense channel at or after it. Absent signals
// are NaN.
type Detection struct {
	AttackStartS float64

	FirstBanS       float64
	FirstFlagS      float64
	FirstDVFSS      float64
	FirstTokenDenyS float64
	FirstBridgeS    float64

	// FirstActuationS is the earliest of the channel firsts; LagS is its
	// distance from AttackStartS.
	FirstActuationS    float64
	FirstActuationKind string
	LagS               float64
}

// Overshoot integrates the sampled power series above the breaker limit:
// total overshoot area (joules), time above the limit, and the excursion
// structure including the longest single excursion.
type Overshoot struct {
	LimitW        float64
	Samples       int
	PeakW         float64
	AreaJ         float64
	OverS         float64
	Excursions    int
	LongestS      float64
	LongestStartS float64
}

// DVFSLatency is the issued-versus-landed distribution: dvfs-command
// events matched against the effective frequency changes that landed their
// target value on the same server.
type DVFSLatency struct {
	Issued  int
	Landed  int
	Pending int

	MinS  float64
	MeanS float64
	P50S  float64
	P95S  float64
	MaxS  float64
}

// Storm is one maximal run of consecutive windows in which a link's retry
// count stayed at or above the configured threshold.
type Storm struct {
	Link    int32
	StartS  float64
	EndS    float64 // exclusive: the end of the last storming window
	Retries uint64
}

// Report bundles every derived signal of one capture.
type Report struct {
	Config Config

	Events     int
	SpanStartS float64
	SpanEndS   float64

	Attacks   []Attack
	Detection Detection
	Overshoot Overshoot
	DVFS      DVFSLatency
	Storms    []Storm
}

// Run analyzes one event stream in insertion (= simulation) order. It fails
// only when the retry-storm fold would exceed the offline replay bound of
// obs.Timeline.Replay (a corrupt or hostile capture).
func Run(events []obs.Event, cfg Config) (*Report, error) {
	cfg = cfg.defaults()
	rep := &Report{
		Config:     cfg,
		Events:     len(events),
		SpanStartS: math.NaN(),
		SpanEndS:   math.NaN(),
	}
	if len(events) > 0 {
		rep.SpanStartS = events[0].T
		rep.SpanEndS = events[len(events)-1].T
	}
	rep.Attacks = attackWindows(events)
	rep.Detection = detection(events, rep.Attacks)
	rep.Overshoot = overshoot(events, cfg.BreakerLimitW)
	rep.DVFS = dvfsLatency(events)
	var err error
	if rep.Storms, err = storms(events, cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// attackWindows reconstructs the ground-truth windows from the markers.
// An off marker closes the most recent still-open window with its label.
func attackWindows(events []obs.Event) []Attack {
	var out []Attack
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindAttackOn:
			out = append(out, Attack{
				Label: ev.Label, Class: ev.Class,
				StartS: ev.T, EndS: math.NaN(), RateRPS: ev.B,
			})
		case obs.KindAttackOff:
			for i := len(out) - 1; i >= 0; i-- {
				if out[i].Label == ev.Label && math.IsNaN(out[i].EndS) {
					out[i].EndS = ev.T
					break
				}
			}
		}
	}
	return out
}

// detection computes the start-lag signal. Only actuations at or after the
// earliest attack start count; with no attack markers every first stays
// NaN alongside the undefined lag.
func detection(events []obs.Event, attacks []Attack) Detection {
	d := Detection{
		AttackStartS:    math.NaN(),
		FirstBanS:       math.NaN(),
		FirstFlagS:      math.NaN(),
		FirstDVFSS:      math.NaN(),
		FirstTokenDenyS: math.NaN(),
		FirstBridgeS:    math.NaN(),
		FirstActuationS: math.NaN(),
		LagS:            math.NaN(),
	}
	for _, a := range attacks {
		if math.IsNaN(d.AttackStartS) || a.StartS < d.AttackStartS {
			d.AttackStartS = a.StartS
		}
	}
	if math.IsNaN(d.AttackStartS) {
		return d
	}
	first := func(slot *float64, kind string, t float64) {
		if t < d.AttackStartS || !math.IsNaN(*slot) {
			return
		}
		*slot = t
		if math.IsNaN(d.FirstActuationS) || t < d.FirstActuationS {
			d.FirstActuationS = t
			d.FirstActuationKind = kind
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindFirewallBan:
			first(&d.FirstBanS, "firewall-ban", ev.T)
		case obs.KindProfilerFlag:
			first(&d.FirstFlagS, "profiler-flag", ev.T)
		case obs.KindDVFSCommand:
			first(&d.FirstDVFSS, "dvfs-command", ev.T)
		case obs.KindTokenDeny:
			first(&d.FirstTokenDenyS, "token-deny", ev.T)
		case obs.KindDefenseBridge:
			first(&d.FirstBridgeS, "defense-bridge", ev.T)
		}
	}
	if !math.IsNaN(d.FirstActuationS) {
		d.LagS = d.FirstActuationS - d.AttackStartS
	}
	return d
}

// overshoot step-integrates the sampled power series above the limit: each
// sample's value holds until the next sample, the final sample carries no
// width. An excursion runs from the first over-limit sample to the first
// at-or-under sample after it (or the last sample while still over).
func overshoot(events []obs.Event, limitW float64) Overshoot {
	o := Overshoot{
		LimitW:        limitW,
		PeakW:         math.NaN(),
		LongestStartS: math.NaN(),
	}
	if limitW <= 0 {
		return o
	}
	prevT := math.NaN()
	prevP := math.NaN()
	over := false
	excStart := math.NaN()
	endExcursion := func(at float64) {
		if d := at - excStart; d > o.LongestS {
			o.LongestS = d
			o.LongestStartS = excStart
		}
		over = false
	}
	for _, ev := range events {
		if ev.Kind != obs.KindSample {
			continue
		}
		o.Samples++
		if math.IsNaN(o.PeakW) || ev.A > o.PeakW {
			o.PeakW = ev.A
		}
		if !math.IsNaN(prevT) && prevP > limitW {
			dt := ev.T - prevT
			o.AreaJ += (prevP - limitW) * dt
			o.OverS += dt
		}
		if ev.A > limitW && !over {
			over = true
			excStart = ev.T
			o.Excursions++
		} else if ev.A <= limitW && over {
			endExcursion(ev.T)
		}
		prevT, prevP = ev.T, ev.A
	}
	if over {
		endExcursion(prevT)
	}
	return o
}

// dvfsLatency matches issued commands to landed frequency changes. The
// landed series is first collapsed to effective changes — when several
// freq-change events hit one server at one instant (a scheme decision
// immediately reverted by a fault hook), only the last one is what the
// server actually runs at. Each command then matches the earliest
// unconsumed effective change on its server, at or after the command, that
// lands the commanded target.
func dvfsLatency(events []obs.Event) DVFSLatency {
	type change struct {
		t        float64
		to       float64
		consumed bool
	}
	type issue struct {
		t  float64
		to float64
	}
	issues := map[int32][]issue{}
	changes := map[int32][]change{}
	var servers []int32
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindDVFSCommand:
			if _, ok := issues[ev.Server]; !ok && changes[ev.Server] == nil {
				servers = append(servers, ev.Server)
			}
			issues[ev.Server] = append(issues[ev.Server], issue{t: ev.T, to: ev.B})
		case obs.KindFreqChange:
			if _, ok := issues[ev.Server]; !ok && changes[ev.Server] == nil {
				servers = append(servers, ev.Server)
			}
			cs := changes[ev.Server]
			if n := len(cs); n > 0 && cs[n-1].t == ev.T { //lint:allow floateq -- same-instant collapse: timestamps compare verbatim
				cs[n-1].to = ev.B
			} else {
				cs = append(cs, change{t: ev.T, to: ev.B})
			}
			changes[ev.Server] = cs
		}
	}

	d := DVFSLatency{
		MinS:  math.NaN(),
		MeanS: math.NaN(),
		P50S:  math.NaN(),
		P95S:  math.NaN(),
		MaxS:  math.NaN(),
	}
	var lags []float64
	for _, sv := range servers {
		for _, is := range issues[sv] {
			d.Issued++
			matched := false
			cs := changes[sv]
			for i := range cs {
				c := &cs[i]
				if c.consumed || c.t < is.t {
					continue
				}
				if c.to != is.to { //lint:allow floateq -- ladder values flow verbatim from command to landing
					continue
				}
				c.consumed = true
				lags = append(lags, c.t-is.t)
				matched = true
				break
			}
			if !matched {
				d.Pending++
			}
		}
	}
	d.Landed = len(lags)
	if len(lags) == 0 {
		return d
	}
	sort.Float64s(lags)
	sum := 0.0
	for _, l := range lags {
		sum += l
	}
	d.MinS = lags[0]
	d.MaxS = lags[len(lags)-1]
	d.MeanS = sum / float64(len(lags))
	d.P50S = nearestRank(lags, 0.50)
	d.P95S = nearestRank(lags, 0.95)
	return d
}

// nearestRank is the deterministic nearest-rank percentile of a sorted
// slice.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// storms folds per-link retries into fixed windows and merges consecutive
// windows at or above the threshold into maximal storm runs, ordered by
// link then start.
func storms(events []obs.Event, cfg Config) ([]Storm, error) {
	tl := obs.NewTimeline(cfg.WindowSec, 0)
	for _, ev := range events {
		if ev.Kind == obs.KindNetRetry {
			if err := tl.Replay(ev); err != nil {
				return nil, err
			}
		}
	}
	var out []Storm
	for link, row := range tl.LinkRetries() {
		inStorm := false
		var cur Storm
		flush := func(endWin int) {
			if !inStorm {
				return
			}
			cur.EndS = float64(endWin) * cfg.WindowSec
			out = append(out, cur)
			inStorm = false
		}
		for w, n := range row {
			if n >= cfg.StormRetries {
				if !inStorm {
					inStorm = true
					cur = Storm{Link: int32(link), StartS: float64(w) * cfg.WindowSec}
					cur.Retries = 0
				}
				cur.Retries += n
			} else {
				flush(w)
			}
		}
		flush(len(row))
	}
	return out, nil
}
