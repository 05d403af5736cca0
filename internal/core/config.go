// Package core assembles the full system and is the public API of the
// library: configure a power-constrained cluster behind a load balancer and
// a firewall, drive it with trace-based legitimate traffic plus attack
// traffic (static floods or the adaptive DOPE attacker), defend it with one
// of the Table 2 schemes, and collect the measurements every figure of the
// paper is built from.
package core

import (
	"fmt"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/firewall"
	"antidope/internal/netlb"
	"antidope/internal/obs"
	"antidope/internal/thermal"
	"antidope/internal/trace"
	"antidope/internal/workload"
)

// SourceSpec pairs an arrival source with the envelope rate the thinning
// sampler needs (an upper bound of Source.Rate over the whole horizon).
type SourceSpec struct {
	Source  workload.Source
	RateCap float64
}

// BreakerCfg enables and sizes the branch-circuit protection model.
type BreakerCfg struct {
	Enabled bool
	// RatingFrac sizes the continuous rating as a fraction of the budget
	// (0 defaults to 1.05 — breakers are rated slightly above the feed).
	RatingFrac float64
	// ToleranceSec is how long a full oversubscription-gap excursion is
	// tolerated before the trip (0 defaults to 30 s).
	ToleranceSec float64
	// RepairSec is the outage duration after a trip before power returns
	// (0 defaults to 60 s).
	RepairSec float64
}

// orDefault substitutes d for an unset (exact-zero) configuration field,
// mirroring thermal.Config.Defaults.
func orDefault(v, d float64) float64 {
	//lint:allow floateq -- exact zero marks an unset config field
	if v == 0 {
		return d
	}
	return v
}

// Defaults returns the configuration with every unset field replaced by its
// documented default: rating 1.05× the budget, 30 s trip tolerance, 60 s
// repair time.
func (b BreakerCfg) Defaults() BreakerCfg {
	b.RatingFrac = orDefault(b.RatingFrac, 1.05)
	b.ToleranceSec = orDefault(b.ToleranceSec, 30)
	b.RepairSec = orDefault(b.RepairSec, 60)
	return b
}

// Config describes one simulation run.
type Config struct {
	// Cluster is the power domain under test.
	Cluster cluster.Config
	// Scheme is the defense under test; nil means defense.None.
	Scheme defense.Scheme
	// Firewall is the perimeter defense configuration.
	Firewall firewall.Config
	// Policy spreads requests within a balancer pool.
	Policy netlb.Policy

	// NormalRPS is the mean legitimate request rate; the trace modulates it
	// over time.
	NormalRPS float64
	// NormalSources is how many distinct legitimate clients the traffic is
	// spread across (keeps them under the firewall threshold).
	NormalSources int
	// Trace modulates the legitimate rate; nil uses a flat rate.
	Trace *trace.Trace
	// ExtraSources injects additional arbitrary arrival sources (e.g. a
	// multi-endpoint legitimate mix) alongside the NormalRPS stream.
	ExtraSources []SourceSpec

	// Attacks are static flood specs injected on top of the normal traffic.
	Attacks []attack.Spec
	// Dope, when non-nil, runs the adaptive Figure 12 attacker.
	Dope *attack.DopeConfig
	// DopeStart delays the adaptive attacker's first request.
	DopeStart float64
	// DopeEpochSec is the attacker's probe/feedback period.
	DopeEpochSec float64
	// DopeEffectiveSlowdown is the externally observable slowdown factor of
	// the attacker's own requests above which it judges the attack
	// effective.
	DopeEffectiveSlowdown float64

	// Breaker, when enabled, adds the branch-circuit protection model: a
	// sustained budget violation becomes a real outage (Figure 1's story)
	// instead of only an accounting entry.
	Breaker BreakerCfg

	// Faults, when non-nil, injects infrastructure failures from a scripted
	// or generated schedule (internal/faults): server crashes, battery
	// faults, telemetry corruption, DVFS actuation faults, firewall
	// outages. The defenses actuate on the faulted telemetry; the physical
	// ledgers (breaker, energy, thermal) always see the true draw.
	Faults *faults.Config

	// Observer, when non-nil, receives the structured sim-time event stream
	// (request lifecycle, defense actuations, breaker/thermal/firewall/fault
	// transitions) from every layer of the stack. Like Scheme it is stateful:
	// give each run its own observer (or one whose BeginRun resets it). nil
	// keeps every hot path on the unobserved zero-allocation route.
	Observer obs.Observer

	// Thermal, when enabled, adds the cooling plane: server RC temperatures
	// driven by their power draw and the room inlet, a CRAC capacity (0 =
	// sized to the power budget), and the hardware's emergency thermal
	// throttle that overrides every scheme.
	Thermal thermal.Config

	// Horizon is the simulated duration in seconds.
	Horizon float64
	// SlotSec is the power-control period.
	SlotSec float64
	// WarmupSec excludes the initial transient from latency statistics.
	WarmupSec float64
	// Seed drives all randomness in the run.
	Seed uint64
}

// DefaultConfig is a runnable baseline: the paper's 4-node rack at
// Normal-PB, flat legitimate load, no attack, no active defense.
func DefaultConfig() Config {
	return Config{
		Cluster:               cluster.DefaultConfig(),
		Firewall:              firewall.DefaultConfig(),
		Policy:                netlb.LeastLoaded,
		NormalRPS:             120,
		NormalSources:         64,
		Horizon:               120,
		SlotSec:               1,
		WarmupSec:             10,
		DopeEpochSec:          10,
		DopeEffectiveSlowdown: 3,
		Seed:                  1,
	}
}

// Validate reports whether the configuration is runnable.
func (c *Config) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("core: horizon %g must be positive", c.Horizon)
	}
	if c.SlotSec <= 0 || c.SlotSec > c.Horizon {
		return fmt.Errorf("core: slot %g outside (0, horizon]", c.SlotSec)
	}
	if c.WarmupSec < 0 || c.WarmupSec >= c.Horizon {
		return fmt.Errorf("core: warmup %g outside [0, horizon)", c.WarmupSec)
	}
	if c.NormalRPS < 0 {
		return fmt.Errorf("core: negative normal rate")
	}
	if c.NormalRPS > 0 && c.NormalSources <= 0 {
		return fmt.Errorf("core: normal traffic needs at least one source")
	}
	for i, es := range c.ExtraSources {
		if es.RateCap <= 0 {
			return fmt.Errorf("core: extra source %d has no rate cap", i)
		}
		if !es.Source.Class.Valid() {
			return fmt.Errorf("core: extra source %d has invalid class", i)
		}
	}
	if err := c.Firewall.Validate(); err != nil {
		return err
	}
	for _, a := range c.Attacks {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if c.Thermal.Enabled {
		if err := c.Thermal.Defaults().Validate(); err != nil {
			return err
		}
	}
	if c.Breaker.Enabled {
		if c.Breaker.RatingFrac < 0 || c.Breaker.ToleranceSec < 0 || c.Breaker.RepairSec < 0 {
			return fmt.Errorf("core: negative breaker parameter")
		}
	}
	if c.Dope != nil {
		if err := c.Dope.Validate(); err != nil {
			return err
		}
		if c.DopeEpochSec <= 0 {
			return fmt.Errorf("core: dope epoch %g must be positive", c.DopeEpochSec)
		}
		if c.DopeEffectiveSlowdown <= 1 {
			return fmt.Errorf("core: dope effective slowdown %g must exceed 1", c.DopeEffectiveSlowdown)
		}
	}
	return nil
}
