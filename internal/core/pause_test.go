package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/power"
	"antidope/internal/report"
	"antidope/internal/workload"
)

// dopeChaosConfig switches on every subsystem that carries mid-run state:
// the adaptive defense, a static flood, the adaptive attacker, breaker and
// thermal planes, and a scripted fault plan whose windows straddle the
// pause instants the tests use, so the run is paused mid-window, not at
// rest.
func dopeChaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = 90
	cfg.WarmupSec = 5
	cfg.Seed = 0xF02C
	cfg.Scheme = defense.NewAntiDope(power.DefaultLadder())
	cfg.NormalRPS = 90
	cfg.Attacks = []attack.Spec{{
		Name:     "flood",
		Layer:    attack.ApplicationLayer,
		Class:    workload.VictimClasses()[0],
		RateRPS:  450,
		Agents:   16,
		Start:    15,
		Duration: 45,
	}}
	dope := attack.DefaultDopeConfig()
	dope.MaxRPS = 800
	cfg.Dope = &dope
	cfg.DopeStart = 10
	cfg.Breaker = core.BreakerCfg{Enabled: true, ToleranceSec: 5, RepairSec: 10}
	cfg.Thermal.Enabled = true
	cfg.Faults = &faults.Config{
		Events: []faults.Event{
			{Kind: faults.ServerCrash, At: 20, Duration: 25, Server: 1},
			{Kind: faults.TelemetryDropout, At: 30, Duration: 20},
			{Kind: faults.DVFSDelay, At: 15, Duration: 40, Server: faults.AllServers, Param: 3},
			{Kind: faults.FirewallDown, At: 35, Duration: 10},
		},
	}
	return cfg
}

// dopeChaosNetConfig adds latency, loss, and partition windows to
// dopeChaosConfig, so delayed deliveries and retries are in flight at the
// later pause instants.
func dopeChaosNetConfig() core.Config {
	cfg := dopeChaosConfig()
	cfg.Faults.Events = append(cfg.Faults.Events,
		faults.Event{Kind: faults.NetDelay, At: 20, Duration: 30, Server: faults.AllServers, Param: 0.08},
		faults.Event{Kind: faults.NetLoss, At: 25, Duration: 25, Server: 2, Param: 0.4},
		faults.Event{Kind: faults.NetPartition, At: 30, Duration: 20, Server: 3},
	)
	return cfg
}

// serializeResult reduces a result to the same byte stream the determinism
// suite pins: the full JSON report plus the human-readable footer.
func serializeResult(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.JSON(&buf, res, 200); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	res.Fprint(&buf)
	return buf.Bytes()
}

// diffByte reports the first index at which two serializations diverge.
func diffByte(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func mustRun(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	return res
}

// TestForkMatchesReplay pins the phased-run contract: Start, RunTo a pause
// instant, RunTo the horizon, and Finish must serialize to the same bytes as
// Run — at the end-of-warmup instant and deep inside the chaos (attack, crash
// window, telemetry dropout, DVFS delay, firewall outage). The name dates
// from when the paused run was also forked; the paused-run half is what
// remains.
func TestForkMatchesReplay(t *testing.T) {
	checkPausedRuns(t, dopeChaosConfig, 5, 40)
}

// TestForkMatchesReplayUnderNetFaults is TestForkMatchesReplay with network
// faults, so delayed deliveries and retries are in flight at the pause.
func TestForkMatchesReplayUnderNetFaults(t *testing.T) {
	checkPausedRuns(t, dopeChaosNetConfig, 5, 22, 40)
}

// checkPausedRuns compares, for each pause instant, a run paused there with
// the straight run of the same config.
func checkPausedRuns(t *testing.T, build func() core.Config, pauses ...float64) {
	t.Helper()
	cfg := build()
	want := serializeResult(t, mustRun(t, cfg))
	for _, at := range pauses {
		t.Run(fmt.Sprintf("T=%g", at), func(t *testing.T) {
			sim, err := core.New(build())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			sim.Start()
			sim.RunTo(at)
			sim.RunTo(cfg.Horizon)
			if got := serializeResult(t, sim.Finish()); !bytes.Equal(got, want) {
				t.Errorf("run paused at T=%g diverged from the straight run at byte %d", at, diffByte(got, want))
			}
		})
	}
}

// TestResetMatchesFresh pins the arena-reuse contract: rewinding a used
// simulation with Reset must serialize to the same bytes as a fresh New,
// even when the previous tenant ran a different scenario — reuse may only
// change where structs live, never the event order or RNG draws.
func TestResetMatchesFresh(t *testing.T) {
	want := serializeResult(t, mustRun(t, dopeChaosConfig()))

	first := dopeChaosConfig()
	first.Seed = 0xBEEF
	first.NormalRPS = 150
	first.Horizon = 60
	sim, err := core.New(first)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sim.Run()

	if err := sim.Reset(dopeChaosConfig()); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := serializeResult(t, sim.Run()); !bytes.Equal(got, want) {
		t.Fatalf("reset run diverged from a fresh run at byte %d", diffByte(got, want))
	}
}
