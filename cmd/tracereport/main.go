// Command tracereport derives the paper-level temporal signals from a
// captured event-stream CSV (antidope-sim -events, the CI obs job's
// capture): ground-truth attack windows, detection start-lag from attack
// open to the first firewall/defense actuation, peak-overshoot area and
// longest excursion over the breaker limit, the DVFS issued-versus-landed
// latency distribution, and per-link retry-storm windows. The report is
// deterministic text — the same capture renders byte-identically — so it
// is golden-pinned like every other figure. It can additionally rebuild
// the sim-time timeline offline, byte-identical to a live
// Bus.EnableTimeline export of the same run.
//
// Usage:
//
//	tracereport [-breaker W] [-window s] [-storm n] [-o report.txt]
//	            [-timeline out.timeline.json] [-timeline-csv out.timeline.csv] events.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"antidope/internal/obs"
	"antidope/internal/obs/analyze"
)

func main() {
	var (
		breakerW    = flag.Float64("breaker", 0, "breaker limit in watts for the overshoot analysis (0 disables)")
		windowSec   = flag.Float64("window", 0, "retry-storm / timeline window width in seconds (default 1)")
		stormN      = flag.Uint64("storm", 0, "per-link per-window retry count that makes a storm (default 5)")
		slaSec      = flag.Float64("sla", 0, "SLA bound in seconds for the rebuilt timeline (default 0.25)")
		outPath     = flag.String("o", "", "write the report here instead of stdout")
		timelineJ   = flag.String("timeline", "", "also rebuild the sim-time timeline and write it as JSON here")
		timelineCSV = flag.String("timeline-csv", "", "also rebuild the sim-time timeline and write it as CSV here")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracereport [flags] events.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	events, err := obs.ParseCSVEvents(f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	rep, err := analyze.Run(events, analyze.Config{
		BreakerLimitW: *breakerW,
		WindowSec:     *windowSec,
		StormRetries:  *stormN,
	})
	if err != nil {
		fatal(err)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer closeOrDie(of)
		out = of
	}
	if err := rep.WriteText(out); err != nil {
		fatal(err)
	}

	if *timelineJ != "" || *timelineCSV != "" {
		tl := obs.NewTimeline(*windowSec, *slaSec)
		for _, ev := range events {
			if err := tl.Replay(ev); err != nil {
				fatal(err)
			}
		}
		writeTo(*timelineJ, tl.WriteJSON)
		writeTo(*timelineCSV, tl.WriteCSV)
	}
}

func writeTo(path string, render func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := render(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracereport: wrote %s\n", path)
}

func closeOrDie(f *os.File) {
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracereport:", err)
	os.Exit(1)
}
