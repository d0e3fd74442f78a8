// Package tpcw generates TPC-W-like web traffic: the three standard workload
// mixes (browsing, shopping, ordering), a catalogue of interaction classes
// with per-tier service demands, and the emulated-browser session model
// (think times, session lengths) that drives both the simulated and the live
// three-tier systems.
//
// The class demand profiles are synthetic but preserve what matters to the
// paper's experiments: ordering-dominated traffic is application- and
// database-heavy while browsing-dominated traffic is lighter and more
// web-tier bound, so each mix prefers a different configuration (paper
// Fig. 1).
package tpcw

import (
	"fmt"

	"github.com/rac-project/rac/internal/sim"
)

// Mix identifies one of the three TPC-W traffic mixes.
type Mix int

// The three mixes defined by TPC-W. Browsing is 95% browse interactions,
// shopping 80%, ordering 50%.
const (
	Browsing Mix = iota + 1
	Shopping
	Ordering
)

// Mixes returns all mixes in definition order.
func Mixes() []Mix { return []Mix{Browsing, Shopping, Ordering} }

// String returns the lowercase mix name.
func (m Mix) String() string {
	switch m {
	case Browsing:
		return "browsing"
	case Shopping:
		return "shopping"
	case Ordering:
		return "ordering"
	default:
		return fmt.Sprintf("Mix(%d)", int(m))
	}
}

// ParseMix parses a mix name.
func ParseMix(s string) (Mix, error) {
	for _, m := range Mixes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("tpcw: unknown mix %q", s)
}

// Class identifies an interaction class (a simplified grouping of the 14
// TPC-W web interactions).
type Class int

// Interaction classes, from lightest to heaviest.
const (
	ClassHome Class = iota + 1
	ClassProductDetail
	ClassSearch
	ClassShoppingCart
	ClassBuyConfirm
	ClassAdmin
)

// Classes returns all interaction classes in definition order.
func Classes() []Class {
	return []Class{ClassHome, ClassProductDetail, ClassSearch,
		ClassShoppingCart, ClassBuyConfirm, ClassAdmin}
}

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassHome:
		return "home"
	case ClassProductDetail:
		return "detail"
	case ClassSearch:
		return "search"
	case ClassShoppingCart:
		return "cart"
	case ClassBuyConfirm:
		return "buy"
	case ClassAdmin:
		return "admin"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Demand is the work a request needs at each stage: CPU seconds of a single
// reference vCPU (see vmenv.Level.CPUCapacity) for the three tiers, plus
// disk I/O seconds for the database tier at a warm buffer cache. The actual
// I/O performed scales with the cache miss factor, which depends on memory
// pressure on the app/db VM.
type Demand struct {
	Web float64
	App float64
	DB  float64
	IO  float64
}

// Scale returns the demand multiplied by f on every stage.
func (d Demand) Scale(f float64) Demand {
	return Demand{Web: d.Web * f, App: d.App * f, DB: d.DB * f, IO: d.IO * f}
}

// Add returns the element-wise sum.
func (d Demand) Add(o Demand) Demand {
	return Demand{Web: d.Web + o.Web, App: d.App + o.App, DB: d.DB + o.DB, IO: d.IO + o.IO}
}

// classDemand is the mean per-stage demand of each interaction class.
// Ordering-path classes (cart, buy) are markedly heavier downstream; web
// demands include serving the page's static content.
func classDemand(c Class) Demand {
	switch c {
	case ClassHome:
		return Demand{Web: 0.0075, App: 0.0022, DB: 0.0025, IO: 0.0100}
	case ClassProductDetail:
		return Demand{Web: 0.0090, App: 0.0018, DB: 0.0029, IO: 0.0150}
	case ClassSearch:
		return Demand{Web: 0.0070, App: 0.0032, DB: 0.0065, IO: 0.0300}
	case ClassShoppingCart:
		return Demand{Web: 0.0080, App: 0.0060, DB: 0.0090, IO: 0.0350}
	case ClassBuyConfirm:
		return Demand{Web: 0.0060, App: 0.0100, DB: 0.0160, IO: 0.0700}
	case ClassAdmin:
		return Demand{Web: 0.0050, App: 0.0016, DB: 0.0022, IO: 0.0100}
	default:
		return Demand{}
	}
}

// ClassDemand returns the mean per-tier demand of an interaction class.
func ClassDemand(c Class) Demand { return classDemand(c) }

// classProbs returns the interaction-class probabilities of each mix, in
// Classes() order. Rows sum to 1.
func classProbs(m Mix) []float64 {
	switch m {
	case Browsing: // 95% browse / 5% order
		return []float64{0.29, 0.22, 0.35, 0.03, 0.02, 0.09}
	case Shopping: // 80% browse / 20% order
		return []float64{0.17, 0.17, 0.30, 0.12, 0.08, 0.16}
	case Ordering: // 50% browse / 50% order
		return []float64{0.10, 0.13, 0.15, 0.27, 0.23, 0.12}
	default:
		return nil
	}
}

// ClassProbs returns a copy of the class probabilities of a mix, in Classes()
// order.
func ClassProbs(m Mix) []float64 {
	p := classProbs(m)
	out := make([]float64, len(p))
	copy(out, p)
	return out
}

// MeanDemand returns the probability-weighted per-tier demand of one
// interaction under the mix — the input to the analytical queueing backend.
func MeanDemand(m Mix) Demand {
	probs := classProbs(m)
	var d Demand
	for i, c := range Classes() {
		d = d.Add(classDemand(c).Scale(probs[i]))
	}
	return d
}

// Session-model constants. TPC-W emulated browsers think for an average of
// seven seconds between interactions; sessions run for a geometrically
// distributed number of interactions.
const (
	// MeanThinkTimeSeconds is the mean exponential think time.
	MeanThinkTimeSeconds = 7.0
	// MeanSessionLength is the mean number of interactions per session.
	MeanSessionLength = 20
	// DemandSigma is the lognormal shape of per-request demand noise.
	DemandSigma = 0.35
)

// Workload pairs a traffic mix with a closed population of emulated browsers.
type Workload struct {
	Mix     Mix
	Clients int
}

// Validate checks the workload is usable.
func (w Workload) Validate() error {
	if w.Mix < Browsing || w.Mix > Ordering {
		return fmt.Errorf("tpcw: invalid mix %d", int(w.Mix))
	}
	if w.Clients <= 0 {
		return fmt.Errorf("tpcw: need a positive client population, got %d", w.Clients)
	}
	return nil
}

// String renders the workload.
func (w Workload) String() string {
	return fmt.Sprintf("%s×%d", w.Mix, w.Clients)
}

// Generator draws interaction classes, think times and per-request demands
// for a mix from a seeded RNG stream.
type Generator struct {
	mix     Mix
	probs   []float64
	rng     *sim.RNG
	classes []Class
}

// NewGenerator returns a generator for the mix drawing from rng.
func NewGenerator(mix Mix, rng *sim.RNG) (*Generator, error) {
	probs := classProbs(mix)
	if probs == nil {
		return nil, fmt.Errorf("tpcw: unknown mix %d", int(mix))
	}
	return &Generator{mix: mix, probs: probs, rng: rng, classes: Classes()}, nil
}

// NextClass samples an interaction class according to the mix probabilities.
func (g *Generator) NextClass() Class {
	return g.classes[g.rng.Pick(g.probs)]
}

// ThinkTime samples an exponential think time in seconds.
func (g *Generator) ThinkTime() float64 {
	return g.rng.ExpFloat64(MeanThinkTimeSeconds)
}

// SessionOver reports whether the session ends after the current interaction
// (geometric with mean MeanSessionLength).
func (g *Generator) SessionOver() bool {
	return g.rng.Bool(1.0 / MeanSessionLength)
}

// RequestDemand samples the per-tier demand of one request of the class:
// the class mean perturbed by lognormal noise with unit-mean.
func (g *Generator) RequestDemand(c Class) Demand {
	base := classDemand(c)
	// exp(N(mu, sigma)) has mean exp(mu + sigma^2/2); pick mu so the factor
	// has mean 1.
	const mu = -DemandSigma * DemandSigma / 2
	f := g.rng.LogNormFloat64(mu, DemandSigma)
	return base.Scale(f)
}
