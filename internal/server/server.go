// Package server models one leaf node: a multi-core processor-sharing
// queue whose service speed depends on the DVFS frequency and on each
// request's frequency sensitivity, and whose power draw follows the
// per-type model of internal/power.
//
// The dynamics are exact between events: while the active set and the
// frequency are unchanged, every request progresses linearly, so the next
// completion instant can be computed in closed form and the power draw is
// piecewise constant. The simulation driver advances servers lazily.
//
// The per-event math is memoized (see DESIGN.md "Performance model"): the
// per-class speed factors pow(f/f_max, beta) are recomputed only when the
// frequency moves, the power model's ladder terms live in a precomputed
// power.Table, and the active-set mix summary is cached under the server's
// version counter — so the arrival/completion path does table lookups
// instead of math.Pow.
package server

import (
	"fmt"
	"math"

	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// Server is one simulated node. It is not safe for concurrent use; the
// simulator is single-goroutine by design.
type Server struct {
	ID    int
	Cores int
	// MaxInflight bounds the active set; arrivals beyond it are rejected,
	// which is what degrades "service availability" in Figure 9.
	MaxInflight int
	Model       power.Model

	// Suspect marks nodes the Anti-DOPE PDF module routes risky traffic to.
	Suspect bool

	freq power.GHz
	// The active set is a struct-of-arrays ledger: active[i], actRem[i] and
	// actCls[i] describe one in-service request. The hot loops (Advance,
	// NextCompletion, mix) walk the two scalar slices without chasing the
	// request pointers; actRem is the authoritative remaining demand while a
	// request is in service, written back to Request.Remaining only when the
	// request leaves the server (completion, crash, outage).
	active  []*workload.Request
	actRem  []float64
	actCls  []workload.Class
	lastAdv float64
	version uint64
	// down marks a crashed node (fault injection): it draws no power,
	// admits nothing, and rejoins only through Recover.
	down bool

	// Accounting.
	energyJ       float64
	busyCoreSecs  float64
	completed     uint64
	rejected      uint64
	lastPower     float64
	powerDirty    bool
	demandServed  float64
	freqChangeCnt uint64

	// perf is the per-class profile cache; an array because the class space
	// is small, dense and hit on every request advance.
	perf [workload.NumClasses]profileCache
	// clsCounts tracks the active set's per-class population incrementally
	// (admit ++, completion --, eviction reset), so the mix summary rebuild
	// is O(classes) instead of an O(active) rescan per version bump.
	clsCounts [workload.NumClasses]int
	// speedTab[c] is pow(Rel(freq), beta_c) at the current frequency — the
	// demand-depletion factor of class c — and freqIdx is freq's ladder
	// index; both are recomputed only when freq changes.
	speedTab [workload.NumClasses]float64
	freqIdx  int
	// ptab memoizes the power model's frequency terms per ladder level,
	// with one exponent slot per class (Exp = int(class)).
	ptab *power.Table
	// mixBuf is the cached active-set mix summary; mixVer stamps the server
	// version it was built at so arrivals/completions invalidate it.
	mixBuf   []power.IndexedComponent
	mixVer   uint64
	mixValid bool
	// doneBuf backs the slice Advance returns, reused across calls.
	doneBuf []*workload.Request

	// obs receives lifecycle events; nil (the default) keeps the hot path
	// allocation-free behind single branches (see TestHotPathAllocFree).
	obs obs.Observer
}

type profileCache struct {
	beta   float64
	weight float64
	alpha  float64
}

// Config carries construction parameters.
type Config struct {
	ID          int
	Cores       int
	MaxInflight int
	Model       power.Model
}

// New builds a server at the ladder maximum frequency.
func New(cfg Config) (*Server, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("server %d: cores %d must be positive", cfg.ID, cfg.Cores)
	}
	if cfg.MaxInflight <= 0 {
		return nil, fmt.Errorf("server %d: max inflight %d must be positive", cfg.ID, cfg.MaxInflight)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("server %d: %w", cfg.ID, err)
	}
	s := &Server{
		ID:          cfg.ID,
		Cores:       cfg.Cores,
		MaxInflight: cfg.MaxInflight,
		Model:       cfg.Model,
		freq:        cfg.Model.Ladder.Max,
		powerDirty:  true,
	}
	var alphas [workload.NumClasses]float64
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		p := workload.Lookup(c)
		s.perf[c] = profileCache{beta: p.PerfBeta, weight: p.PowerWeight, alpha: p.PowerAlpha}
		alphas[c] = p.PowerAlpha
	}
	s.ptab = power.NewTable(cfg.Model, alphas[:])
	s.refreshFreqCache()
	return s, nil
}

// MustNew is New for tests and examples with known-good configs.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// refreshFreqCache recomputes the per-class depletion factors and the
// ladder index for the current frequency. This is the only math.Pow (and
// Ladder.Index rounding) site left on the simulation path, and it runs per
// frequency change — New, CapFreq, Recover — not per request.
func (s *Server) refreshFreqCache() {
	s.freqIdx = s.Model.Ladder.Index(s.freq)
	rel := s.Model.Ladder.Rel(s.freq)
	for c := range s.perf {
		s.speedTab[c] = math.Pow(rel, s.perf[c].beta)
	}
}

// SetObserver installs the event sink. Pass nil to detach.
func (s *Server) SetObserver(o obs.Observer) { s.obs = o }

// Version increments whenever the server's dynamics change (arrival,
// completion, frequency change). The simulation driver stamps scheduled
// completion events with it to invalidate stale events cheaply.
func (s *Server) Version() uint64 { return s.version }

// Inflight returns the number of requests currently in service.
func (s *Server) Inflight() int { return len(s.active) }

// Completed returns the count of finished requests.
func (s *Server) Completed() uint64 { return s.completed }

// Rejected returns the count of admission rejections.
func (s *Server) Rejected() uint64 { return s.rejected }

// EnergyJ returns integrated energy since construction.
func (s *Server) EnergyJ() float64 { return s.energyJ }

// BusyCoreSeconds returns accumulated busy core-time, for utilization math.
func (s *Server) BusyCoreSeconds() float64 { return s.busyCoreSecs }

// FreqChanges returns how many times the operating frequency moved, a proxy
// for actuation churn.
func (s *Server) FreqChanges() uint64 { return s.freqChangeCnt }

// share returns the core share each active request receives.
//
//hot:allocfree
func (s *Server) share() float64 {
	n := len(s.active)
	if n == 0 {
		return 0
	}
	if n <= s.Cores {
		return 1
	}
	return float64(s.Cores) / float64(n)
}

// Advance moves the server's internal clock to now, depleting demand and
// integrating energy. It returns requests that completed, with FinishAt
// set. Advance must be called with non-decreasing now.
//
// The returned slice is owned by the server and reused: it is valid until
// the next Advance or FailAll call. Callers that need the requests longer
// must copy them out first; the simulation driver consumes them in place.
//
//hot:allocfree
func (s *Server) Advance(now float64) []*workload.Request {
	dt := now - s.lastAdv
	if dt < 0 {
		panic(fmt.Sprintf("server %d: advance backwards %.9f -> %.9f", s.ID, s.lastAdv, now))
	}
	if dt == 0 { //lint:allow floateq -- exact re-advance to the same event instant
		return nil
	}
	// Power and speeds are constant over (lastAdv, now] because the driver
	// always advances to the next event boundary.
	s.energyJ += s.PowerNow() * dt
	s.busyCoreSecs += s.share() * float64(len(s.active)) * dt

	var done []*workload.Request
	if n := len(s.active); n > 0 {
		done = s.doneBuf[:0]
		sh := s.share()
		act, rem, cls := s.active, s.actRem, s.actCls
		w := 0
		for i := 0; i < n; i++ {
			left := rem[i] - sh*s.speedTab[cls[i]]*dt
			if left <= 1e-9 {
				r := act[i]
				r.Remaining = 0
				r.FinishAt = now
				s.clsCounts[cls[i]]--
				s.completed++
				s.demandServed += r.Demand
				done = append(done, r)
				if s.obs != nil {
					s.obs.Emit(obs.Event{
						T: now, Kind: obs.KindReqComplete,
						Server: int32(s.ID), Class: int32(r.Class), ID: r.ID,
						//lint:allow hotalloc -- inlined Class.String: only its invalid-class fallback boxes, never taken here
						A: r.StartAt, B: now - r.ArriveAt, Label: r.Class.String(),
					})
				}
			} else {
				act[w], rem[w], cls[w] = act[i], left, cls[i]
				w++
			}
		}
		// Zero the vacated pointer tail so the backing array does not pin
		// completed requests after they are recycled.
		for i := w; i < n; i++ {
			act[i] = nil
		}
		s.active, s.actRem, s.actCls = act[:w], rem[:w], cls[:w]
		s.doneBuf = done
		if len(done) > 0 {
			s.version++
			s.powerDirty = true
		} else {
			done = nil
		}
	}
	s.lastAdv = now
	return done
}

// Admit places a request in service at time now. The caller must have
// advanced the server to now first. It returns false (and marks the request
// dropped) when the inflight bound is hit.
//
//hot:allocfree
func (s *Server) Admit(now float64, r *workload.Request) bool {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: admit at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if s.down {
		s.rejected++
		r.Dropped = true
		r.DropReason = "server-down"
		return false
	}
	if len(s.active) >= s.MaxInflight {
		s.rejected++
		r.Dropped = true
		r.DropReason = "server-queue-full"
		return false
	}
	r.StartAt = now
	s.active = append(s.active, r)
	s.actRem = append(s.actRem, r.Remaining)
	s.actCls = append(s.actCls, r.Class)
	s.clsCounts[r.Class]++
	s.version++
	s.powerDirty = true
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: now, Kind: obs.KindReqStart,
			Server: int32(s.ID), Class: int32(r.Class), ID: r.ID,
			//lint:allow hotalloc -- inlined Class.String: only its invalid-class fallback boxes, never taken here
			Label: r.Class.String(),
		})
	}
	return true
}

// NextCompletion returns the absolute time of the earliest completion under
// the current operating point, or ok=false when idle.
//
//hot:allocfree
func (s *Server) NextCompletion() (at float64, ok bool) {
	if len(s.active) == 0 {
		return 0, false
	}
	best := math.Inf(1)
	sh := s.share()
	rem, cls := s.actRem, s.actCls
	for i := range rem {
		sp := sh * s.speedTab[cls[i]]
		if sp <= 0 {
			continue
		}
		t := rem[i] / sp
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return s.lastAdv + best, true
}

// mix summarizes the active set as indexed power-model components, one per
// class, cached under the version counter so repeated power queries at an
// unchanged operating point (the governors' planning loops) reuse it.
//
//hot:allocfree
func (s *Server) mix() []power.IndexedComponent {
	if s.mixValid && s.mixVer == s.version {
		return s.mixBuf
	}
	s.mixBuf = s.mixBuf[:0]
	if len(s.active) > 0 {
		share := s.share()
		for c, n := range s.clsCounts {
			if n == 0 {
				continue
			}
			s.mixBuf = append(s.mixBuf, power.IndexedComponent{
				Util:   float64(n) * share / float64(s.Cores),
				Weight: s.perf[c].weight,
				Exp:    c,
			})
		}
	}
	s.mixVer = s.version
	s.mixValid = true
	return s.mixBuf
}

// PowerNow returns the instantaneous draw at the current operating point.
// A crashed node draws nothing.
//
//hot:allocfree
func (s *Server) PowerNow() power.Watts {
	if s.down {
		return 0
	}
	if s.powerDirty {
		s.lastPower = s.ptab.PowerIdx(s.freqIdx, s.mix())
		s.powerDirty = false
	}
	return s.lastPower
}

// PowerAt predicts the draw if the frequency were capped to f with the
// current load mix — the governor's planning primitive. A crashed node
// predicts zero at every level, so governors see no savings in it.
//
//hot:allocfree
func (s *Server) PowerAt(f power.GHz) power.Watts {
	if s.down {
		return 0
	}
	return s.ptab.Power(f, s.mix())
}

// Freq returns the current operating frequency.
func (s *Server) Freq() power.GHz { return s.freq }

// CapFreq snaps the server to the given ladder level. The caller must have
// advanced the server to the decision instant first, because a frequency
// change alters all in-flight completion times.
//
//hot:allocfree
func (s *Server) CapFreq(f power.GHz) {
	nf := s.Model.Ladder.Clamp(f)
	//lint:allow floateq -- both sides come from the same discrete DVFS ladder
	if nf == s.freq {
		return
	}
	old := s.freq
	s.freq = nf
	s.version++
	s.powerDirty = true
	s.freqChangeCnt++
	s.refreshFreqCache()
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: s.lastAdv, Kind: obs.KindFreqChange,
			Server: int32(s.ID), A: float64(old), B: float64(nf),
		})
	}
}

// Utilization returns the fraction of core capacity in use right now.
func (s *Server) Utilization() float64 {
	return s.share() * float64(len(s.active)) / float64(s.Cores)
}

// ClassCounts returns the number of in-service requests per class.
func (s *Server) ClassCounts() map[workload.Class]int {
	out := make(map[workload.Class]int)
	for c, n := range s.clsCounts {
		if n > 0 {
			out[workload.Class(c)] = n
		}
	}
	return out
}

// DrainDeadline estimates when the server would drain if no more arrivals
// came, for battery-autonomy planning. Returns 0 when idle.
func (s *Server) DrainDeadline() float64 {
	total := 0.0
	for i, rm := range s.actRem {
		total += rm / s.speedTab[s.actCls[i]]
	}
	if total == 0 { //lint:allow floateq -- exact: a sum of non-negatives is 0 iff no work remains
		return 0
	}
	// Work conserves: total core-seconds left divided by core capacity.
	return s.lastAdv + total/float64(s.Cores)
}

// detach hands the whole active set to the caller: the ledger's remaining
// demand is written back into each request (the structs are stale while in
// service), the pointer slice is surrendered, and the scalar columns are
// truncated for reuse. Only the bulk-eviction paths (FailAll, Crash) use it.
func (s *Server) detach() []*workload.Request {
	out := s.active
	for i, r := range out {
		r.Remaining = s.actRem[i]
	}
	s.active = nil
	s.actRem = s.actRem[:0]
	s.actCls = s.actCls[:0]
	s.clsCounts = [workload.NumClasses]int{}
	return out
}

var _ power.Capper = (*Server)(nil)

// FailAll drops every in-flight request, modeling a power-loss event in the
// server's domain (breaker trip). The caller must have advanced the server
// to now first. The dropped requests are returned for accounting; the
// server itself is immediately reusable once the caller's outage window
// ends.
func (s *Server) FailAll(now float64) []*workload.Request {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: fail at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if len(s.active) == 0 {
		return nil
	}
	failed := s.detach()
	for _, r := range failed {
		r.Dropped = true
		r.DropReason = "outage"
	}
	s.rejected += uint64(len(failed))
	s.version++
	s.powerDirty = true
	return failed
}

// Up reports whether the node is serving (not crashed).
func (s *Server) Up() bool { return !s.down }

// Crash takes the node down, detaching its in-flight requests WITHOUT
// marking them dropped: unlike a domain-wide outage (FailAll), a single
// node's crash leaves the rest of the cluster up, so the caller decides
// each orphan's fate — typically re-routing it through the balancer. The
// caller must have advanced the server to now first. The returned slice is
// owned by the caller. Crashing a crashed node is a no-op returning nil.
func (s *Server) Crash(now float64) []*workload.Request {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: crash at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if s.down {
		return nil
	}
	s.down = true
	orphans := s.detach()
	s.version++
	s.powerDirty = true
	if s.obs != nil {
		s.obs.Emit(obs.Event{T: now, Kind: obs.KindServerCrash, Server: int32(s.ID)})
	}
	return orphans
}

// Recover reboots a crashed node at the ladder maximum — a reboot forgets
// any throttle state the governor had imposed — with an empty queue. The
// caller must have advanced the server to now first. Recovering an up node
// is a no-op.
func (s *Server) Recover(now float64) {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: recover at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if !s.down {
		return
	}
	s.down = false
	//lint:allow floateq -- both sides come from the same discrete DVFS ladder
	if s.freq != s.Model.Ladder.Max {
		old := s.freq
		s.freq = s.Model.Ladder.Max
		s.freqChangeCnt++
		s.refreshFreqCache()
		if s.obs != nil {
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindFreqChange,
				Server: int32(s.ID), A: float64(old), B: float64(s.freq),
			})
		}
	}
	s.version++
	s.powerDirty = true
	if s.obs != nil {
		s.obs.Emit(obs.Event{T: now, Kind: obs.KindServerRecover, Server: int32(s.ID)})
	}
}
