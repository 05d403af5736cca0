package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// modulePrefix marks the simulator's own frames in a profile.
const modulePrefix = "antidope/internal/"

// layerAlias folds packages that are not profiled layers of their own into
// the layer they serve, so the shares stay within the modules list and
// still sum to 1. Packages not named here and not in modules are skipped
// like standard-library frames: their samples count to the caller.
var layerAlias = map[string]string{
	"attack":      "workload", // attack traffic sources
	"trace":       "workload", // legitimate-rate modulation
	"detect":      "firewall",
	"faults":      "core", // fault orchestration and link cursors
	"thermal":     "power",
	"experiments": "harness", // figure runners that build and submit jobs
	"sla":         "harness", // Pool.Go capacity searches
	"report":      "stats",
	"queueing":    "server",
	"topology":    "cluster",
}

// frameLayer names the layer a profile frame belongs to, or "" for a frame
// outside every layer (standard library, runtime).
func frameLayer(frame string) string {
	frame = strings.TrimSuffix(frame, " (inline)")
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(frame, modulePrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	if a, ok := layerAlias[pkg]; ok {
		return a
	}
	for _, m := range modules {
		if m == pkg {
			return m
		}
	}
	return ""
}

// profileFold is a CPU profile folded by layer.
type profileFold struct {
	// Seconds is CPU time per layer; every module is present.
	Seconds map[string]float64
	// Total is the summed CPU time of every sample.
	Total float64
	// Inclusive is the CPU time of samples whose stack holds a frame
	// matched by the named inclusive matcher.
	Inclusive map[string]float64
}

// Share returns a layer's fraction of all samples.
func (f *profileFold) Share(layer string) float64 { return ratio(f.Seconds[layer], f.Total) }

// inclusiveMatchers name the call sites whose inclusive time the
// reconciliation compares with the benchmark's own spans.
var inclusiveMatchers = map[string]func(frame string) bool{
	// A whole simulation run on the production path (harness → Run).
	"core.run": func(f string) bool {
		return strings.HasPrefix(f, modulePrefix+"core.(*Simulation).Run")
	},
	// Calls into the defense schemes' per-request and per-slot hooks.
	"defense.hooks": func(f string) bool {
		f = strings.TrimSuffix(f, " (inline)")
		return strings.HasPrefix(f, modulePrefix+"defense.") &&
			(strings.HasSuffix(f, ").Admit") || strings.HasSuffix(f, ").ControlSlot"))
	},
}

// foldTraces reads `go tool pprof -traces` text and assigns each sample to
// the innermost frame that belongs to a layer (the benchmark's own frames
// count as the bench layer). Standard-library frames such as math, called
// from rng or server, therefore count to their caller; a sample with no
// layer frame at all counts to runtime.
func foldTraces(r io.Reader) (*profileFold, error) {
	f := &profileFold{Seconds: map[string]float64{}, Inclusive: map[string]float64{}}
	for _, m := range modules {
		f.Seconds[m] = 0
	}
	for name := range inclusiveMatchers {
		f.Inclusive[name] = 0
	}
	var (
		inBlock bool
		value   float64
		frames  []string
		samples int
	)
	flush := func() {
		if !inBlock {
			return
		}
		layer := "runtime"
		for _, fr := range frames {
			if l := frameLayer(fr); l != "" {
				layer = l
				break
			}
		}
		f.Seconds[layer] += value
		f.Total += value
		for name, match := range inclusiveMatchers {
			for _, fr := range frames {
				if match(fr) {
					f.Inclusive[name] += value
					break
				}
			}
		}
		samples++
		inBlock, frames = false, frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	seenSep := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			seenSep = true
			continue
		}
		if !seenSep || strings.TrimSpace(line) == "" {
			continue // header (File, Type, Duration, ...)
		}
		if !inBlock {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("fold: malformed sample line %q", line)
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fold: %w", err)
			}
			value, inBlock = v, true
			frames = append(frames, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0])))
			continue
		}
		frames = append(frames, strings.TrimSpace(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if samples == 0 {
		return nil, fmt.Errorf("fold: no samples in profile")
	}
	return f, nil
}

// durationUnits are the suffixes pprof prints on CPU sample values.
var durationUnits = []struct {
	suffix string
	sec    float64
}{
	{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6},
	{"ms", 1e-3}, {"s", 1},
}

// parseDuration reads a pprof sample value such as "10ms" or "1.20s".
func parseDuration(s string) (float64, error) {
	for _, u := range durationUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("sample value %q: %w", s, err)
			}
			return v * u.sec, nil
		}
	}
	return 0, fmt.Errorf("sample value %q has no time unit", s)
}
