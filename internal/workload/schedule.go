package workload

import (
	"fmt"
	"math"
	"sort"

	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/tpcw"
)

// Arrival is one offered request: an absolute scenario time (paper-scale
// seconds from scenario start) and an interaction class.
type Arrival struct {
	T     float64
	Class tpcw.Class
}

// scheduleSeedSalt decorrelates the scenario arrival stream from every other
// consumer of a run's base seed.
const scheduleSeedSalt = 0x5CED06AD

// ScheduleRNG returns the arrival stream for a run seeded with seed: the one
// stream the open-loop driver walks a Schedule's windows with.
func ScheduleRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed ^ scheduleSeedSalt) }

// cphase is one compiled phase: spec fields resolved (mix parsed, drift
// window closed) plus its absolute start time.
type cphase struct {
	name    string
	start   float64 // absolute scenario seconds
	dur     float64
	rate    float64
	clients float64
	mix     tpcw.Mix
	uniform bool // uniform arrival process (default Poisson)
	mods    []Modulation
	drift   *cdrift
}

type cdrift struct {
	to     tpcw.Mix
	t0, t1 float64 // phase-relative window
}

// factor evaluates the phase's operator stack at phase-relative time t.
func (p *cphase) factor(t float64) float64 {
	f := 1.0
	for _, m := range p.mods {
		switch m.Op {
		case OpSinusoid:
			f *= 1 + m.Amplitude*math.Sin(2*math.Pi*(t/m.PeriodSeconds+m.PhaseShift))
		case OpRamp:
			u := t / p.dur
			if u < 0 {
				u = 0
			} else if u > 1 {
				u = 1
			}
			f *= m.From + (m.To-m.From)*u
		case OpSpike:
			if t >= m.AtSeconds && t < m.AtSeconds+m.DurationSeconds {
				f *= m.Factor
			}
		}
	}
	if f < 0 {
		f = 0
	}
	return f
}

// probs returns the class probabilities at phase-relative time t, blending
// through the drift window when one is set.
func (p *cphase) probs(t float64) []float64 {
	base := tpcw.ClassProbs(p.mix)
	d := p.drift
	if d == nil || t <= d.t0 {
		return base
	}
	target := tpcw.ClassProbs(d.to)
	if t >= d.t1 {
		return target
	}
	s := (t - d.t0) / (d.t1 - d.t0)
	for i := range base {
		base[i] = (1-s)*base[i] + s*target[i]
	}
	return base
}

// Schedule is a compiled scenario: the offered-load surface plus cumulative
// integrals of rate and population on a fixed grid, so arrival placement and
// per-interval workloads are pure float math — deterministic for any
// parallelism and cheap enough for the per-interval path.
type Schedule struct {
	sc      Scenario
	phases  []cphase
	total   float64
	hasRate bool

	step    float64   // grid cell width
	cumRate []float64 // cumRate[i] = ∫₀^{i·step} rate; len gridN+1
	cumPop  []float64 // same integral of the population
	endRate float64   // rate held past the scenario end
	endPop  float64
}

// Compile validates and compiles a scenario.
func Compile(sc Scenario) (*Schedule, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{sc: sc, phases: make([]cphase, len(sc.Phases))}
	var start float64
	for i, p := range sc.Phases {
		mix, err := tpcw.ParseMix(p.Mix)
		if err != nil {
			return nil, err
		}
		cp := cphase{
			name:    p.Name,
			start:   start,
			dur:     p.DurationSeconds,
			rate:    p.Rate,
			clients: float64(p.Clients),
			mix:     mix,
			uniform: p.Arrival == "uniform",
			mods:    p.Modulate,
		}
		if cp.name == "" {
			cp.name = fmt.Sprintf("phase-%d", i+1)
		}
		if d := p.MixDrift; d != nil {
			to, err := tpcw.ParseMix(d.To)
			if err != nil {
				return nil, err
			}
			end := d.EndSeconds
			if end == 0 {
				end = p.DurationSeconds
			}
			cp.drift = &cdrift{to: to, t0: d.StartSeconds, t1: end}
		}
		if p.Rate > 0 {
			s.hasRate = true
		}
		s.phases[i] = cp
		start += p.DurationSeconds
	}
	s.total = start

	// Midpoint integration on a ~1 s grid (bounded): cum tables are piecewise
	// linear, so Cum and its inverse are exact for each other and spikes land
	// within one cell of their scripted edges.
	gridN := int(s.total + 0.5)
	if gridN < 512 {
		gridN = 512
	}
	if gridN > 1<<16 {
		gridN = 1 << 16
	}
	s.step = s.total / float64(gridN)
	s.cumRate = make([]float64, gridN+1)
	s.cumPop = make([]float64, gridN+1)
	for i := 0; i < gridN; i++ {
		mid := (float64(i) + 0.5) * s.step
		p := s.phaseAt(mid)
		f := p.factor(mid - p.start)
		s.cumRate[i+1] = s.cumRate[i] + p.rate*f*s.step
		s.cumPop[i+1] = s.cumPop[i] + p.clients*f*s.step
	}
	last := &s.phases[len(s.phases)-1]
	ef := last.factor(last.dur)
	s.endRate = last.rate * ef
	s.endPop = last.clients * ef
	return s, nil
}

// Scenario returns the compiled scenario spec.
func (s *Schedule) Scenario() Scenario { return s.sc }

// Duration returns the scenario length in scenario seconds. Lookups past the
// end hold the final load level, so runs may outlast their scenario.
func (s *Schedule) Duration() float64 { return s.total }

// phaseAt returns the phase containing t (clamped into the scenario).
func (s *Schedule) phaseAt(t float64) *cphase {
	i := sort.Search(len(s.phases), func(i int) bool {
		return s.phases[i].start+s.phases[i].dur > t
	})
	if i >= len(s.phases) {
		i = len(s.phases) - 1
	}
	return &s.phases[i]
}

// PhaseAt returns the index and name of the phase containing t. Times past
// the end report the final phase.
func (s *Schedule) PhaseAt(t float64) (int, string) {
	p := s.phaseAt(t)
	for i := range s.phases {
		if &s.phases[i] == p {
			return i, p.name
		}
	}
	return 0, p.name
}

// RateAt returns the instantaneous open-loop offered rate at t.
func (s *Schedule) RateAt(t float64) float64 {
	if t >= s.total {
		return s.endRate
	}
	if t < 0 {
		t = 0
	}
	p := s.phaseAt(t)
	return p.rate * p.factor(t-p.start)
}

// ClientsAt returns the instantaneous browser population at t (minimum 1
// when the phase defines one).
func (s *Schedule) ClientsAt(t float64) int {
	var pop float64
	if t >= s.total {
		pop = s.endPop
	} else {
		if t < 0 {
			t = 0
		}
		p := s.phaseAt(t)
		pop = p.clients * p.factor(t-p.start)
	}
	n := int(pop + 0.5)
	if n < 1 && pop > 0 {
		n = 1
	}
	return n
}

// MixProbsAt returns the interaction-class probabilities at t, in
// tpcw.Classes() order, with any drift blended in.
func (s *Schedule) MixProbsAt(t float64) []float64 {
	if t >= s.total {
		t = s.total
	}
	if t < 0 {
		t = 0
	}
	p := s.phaseAt(t)
	return p.probs(t - p.start)
}

// cum interpolates a cumulative table at t, extending past the scenario end
// at the held final level.
func (s *Schedule) cum(table []float64, end, t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= s.total {
		return table[len(table)-1] + end*(t-s.total)
	}
	i := int(t / s.step)
	if i >= len(table)-1 {
		i = len(table) - 2
	}
	cell := (table[i+1] - table[i]) / s.step
	return table[i] + (t-float64(i)*s.step)*cell
}

// invCumRate returns the time at which the cumulative rate reaches target.
func (s *Schedule) invCumRate(target float64) float64 {
	last := s.cumRate[len(s.cumRate)-1]
	if target >= last {
		if s.endRate <= 0 {
			return s.total
		}
		return s.total + (target-last)/s.endRate
	}
	if target <= 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.cumRate, target)
	if i > 0 {
		i--
	}
	cell := (s.cumRate[i+1] - s.cumRate[i]) / s.step
	if cell <= 0 {
		return float64(i+1) * s.step
	}
	return float64(i)*s.step + (target-s.cumRate[i])/cell
}

// OfferedRate returns the mean offered load over [t0, t1): requests per
// second when the scenario defines rates, mean population otherwise.
func (s *Schedule) OfferedRate(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	if s.hasRate {
		return (s.cum(s.cumRate, s.endRate, t1) - s.cum(s.cumRate, s.endRate, t0)) / (t1 - t0)
	}
	return (s.cum(s.cumPop, s.endPop, t1) - s.cum(s.cumPop, s.endPop, t0)) / (t1 - t0)
}

// dominantMix returns the standard mix nearest (L1 on class probabilities) to
// probs — the discrete mix a blended distribution rounds to.
func dominantMix(probs []float64) tpcw.Mix {
	best := tpcw.Browsing
	bestDist := math.Inf(1)
	for _, m := range tpcw.Mixes() {
		ref := tpcw.ClassProbs(m)
		var d float64
		for i := range ref {
			d += math.Abs(probs[i] - ref[i])
		}
		if d < bestDist {
			bestDist = d
			best = m
		}
	}
	return best
}

// WorkloadAt returns the closed-loop view of [t0, t1): mean population over
// the window (derived from the rate via the TPC-W think time when the phase
// defines no population) under the window's dominant mix.
func (s *Schedule) WorkloadAt(t0, t1 float64) tpcw.Workload {
	mid := (t0 + t1) / 2
	pop := 0.0
	if t1 > t0 {
		pop = (s.cum(s.cumPop, s.endPop, t1) - s.cum(s.cumPop, s.endPop, t0)) / (t1 - t0)
	}
	if pop <= 0 {
		// Population-free phase: a closed loop offering the same rate needs
		// roughly rate × think-time browsers (think time dominates service
		// time in TPC-W sessions).
		rate := (s.cum(s.cumRate, s.endRate, t1) - s.cum(s.cumRate, s.endRate, t0)) / (t1 - t0)
		pop = rate * tpcw.MeanThinkTimeSeconds
	}
	n := int(pop + 0.5)
	if n < 1 {
		n = 1
	}
	return tpcw.Workload{Mix: dominantMix(s.MixProbsAt(mid)), Clients: n}
}

// Window returns the arrivals offered in [t0, t1), drawn sequentially from
// rng. The expected count is the integral of the rate over the window
// (rounded, like the static open-loop schedule); Poisson windows place that
// many sorted uniforms in cumulative-rate space — which is exactly a
// non-homogeneous Poisson process conditioned on its count — and uniform
// windows space them evenly in the same space. Classes are then drawn
// arrival by arrival against the drifting mix.
//
// This is the open-loop contract: callers own rng and walk windows in order,
// one stream consumed front to back, so what the arrivals are never depends
// on worker count or GOMAXPROCS (which only decide who executes each slot
// downstream).
func (s *Schedule) Window(rng *sim.RNG, t0, t1 float64) []Arrival {
	if t1 <= t0 {
		return nil
	}
	c0 := s.cum(s.cumRate, s.endRate, t0)
	c1 := s.cum(s.cumRate, s.endRate, t1)
	n := int(c1 - c0 + 0.5)
	if n <= 0 {
		return nil
	}
	out := make([]Arrival, n)
	if s.phaseAt(math.Min(t0, s.total-1e-9)).uniform {
		span := (c1 - c0) / float64(n)
		for k := range out {
			out[k].T = s.invCumRate(c0 + (float64(k)+0.5)*span)
		}
	} else {
		// n sorted uniforms on [c0, c1) via normalized exponential spacings:
		// Λ_k = c0 + (c1−c0)·S_k/S_{n+1}, generated in order.
		gaps := make([]float64, n+1)
		var total float64
		for i := range gaps {
			gaps[i] = rng.ExpFloat64(1)
			total += gaps[i]
		}
		var cum float64
		for k := range out {
			cum += gaps[k]
			out[k].T = s.invCumRate(c0 + (c1-c0)*cum/total)
		}
	}
	classes := tpcw.Classes()
	for k := range out {
		out[k].Class = classes[rng.Pick(s.MixProbsAt(out[k].T))]
	}
	return out
}
