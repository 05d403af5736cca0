package main

import (
	"time"

	"antidope/internal/defense"
	"antidope/internal/workload"
)

// timedScheme wraps a defense.Scheme and times every call into it from the
// outside. It also samples the servers' in-flight counts at each control
// slot, when the env is in hand.
//
// The wrapper hides the concrete scheme type from core, which type-asserts
// *defense.Token to fill Result.TokenDropFrac: a traced Token run therefore
// reports 0 there. Traced results feed only per-layer metrics, never the
// end-to-end ones.
type timedScheme struct {
	inner defense.Scheme

	admitCalls, admitRefused uint64
	admitNs                  int64
	slotCalls                uint64
	slotNs                   int64
	// inflightSum / inflightN accumulate Server.Inflight over every server
	// at every control slot.
	inflightSum, inflightN uint64
}

func (t *timedScheme) Name() string { return t.inner.Name() }

func (t *timedScheme) Setup(env *defense.Env) { t.inner.Setup(env) }

func (t *timedScheme) Admit(now float64, req *workload.Request) bool {
	start := time.Now()
	ok := t.inner.Admit(now, req)
	t.admitNs += int64(time.Since(start))
	t.admitCalls++
	if !ok {
		t.admitRefused++
	}
	return ok
}

func (t *timedScheme) ControlSlot(now float64, env *defense.Env) defense.SlotReport {
	for _, sv := range env.Cluster.Servers {
		t.inflightSum += uint64(sv.Inflight())
	}
	t.inflightN += uint64(len(env.Cluster.Servers))
	start := time.Now()
	rep := t.inner.ControlSlot(now, env)
	t.slotNs += int64(time.Since(start))
	t.slotCalls++
	return rep
}
