package core

import (
	"fmt"
	"math"
	"sync"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/regression"
)

// groupLatticeCap bounds groupLattices. A process trains over a handful of
// lattice shapes; a new shape that would exceed the cap drops the memo first
// (a structure is a pure function of its shape, so a drop costs a rebuild,
// never a different byte).
const groupLatticeCap = 16

// groupLattices memoizes the offline-training MDP of the group lattice shapes
// in use, by latticeShape, each built on first use. Its values are immutable
// and depend on the key alone, so sharing them across callers is unobservable
// except in time.
var groupLattices struct {
	sync.Mutex
	m map[string]func() (*mdp.Structure, error)
}

// groupLattice returns the deterministic MDP over the whole group lattice that
// offline training solves, in the form mdp.Solve takes: states are the
// lattice's points by ordinal, keyed by their configuration keys, and actions
// move one group one step (config.Actions of the lattice; a move leaving it is
// infeasible). It depends on the lattice's per-group ranges alone, so it is
// built once per shape and shared read-only by every policy over one — the
// ones LearnPolicyStream trains and the ones LoadPolicy reads. Rewards are
// per policy (trainingMDP).
func groupLattice(lattice *config.Space) (*mdp.Structure, error) {
	shape := latticeShape(lattice)
	groupLattices.Lock()
	build, ok := groupLattices.m[shape]
	if !ok {
		build = sync.OnceValues(func() (*mdp.Structure, error) { return newGroupLattice(lattice) })
		if groupLattices.m == nil || len(groupLattices.m) >= groupLatticeCap {
			groupLattices.m = make(map[string]func() (*mdp.Structure, error))
		}
		groupLattices.m[shape] = build
	}
	groupLattices.Unlock()
	return build()
}

// latticeShape identifies a lattice by what its keys and transitions depend
// on: each parameter's Min, Max and Step.
func latticeShape(lattice *config.Space) string {
	var b []byte
	for i := 0; i < lattice.Len(); i++ {
		d := lattice.Def(i)
		b = fmt.Appendf(b, "%d:%d:%d,", d.Min, d.Max, d.Step)
	}
	return string(b)
}

func newGroupLattice(lattice *config.Space) (*mdp.Structure, error) {
	keys := make([]string, lattice.States())
	ords := make([]uint64, len(keys))
	point := make(config.Config, lattice.Len())
	for ord := range keys {
		ords[ord] = uint64(ord)
		keys[ord] = lattice.At(uint64(ord), point).Key()
	}
	trans := lattice.Transitions(nil, ords, func(ord uint64) int32 { return int32(ord) })
	return mdp.NewStructureFromTransitions(keys, 2*lattice.Len()+1, trans)
}

// Policy is an initial configuration policy for one system context: a
// regression predictor of the response-time surface plus a Q-table trained
// offline over the grouped sublattice (paper Algorithm 2). It seeds the
// online Q-table for unvisited states and supplies reward estimates for
// states without measurements.
type Policy struct {
	name  string
	space *config.Space
	// groups is the space's grouping; the offline Q-table's states are the
	// points of its lattice. lattice is that lattice's shared training MDP
	// (groupLattice), whose state keys by ordinal let resolving a
	// configuration's group state build no string.
	groups  *config.Grouping
	lattice *mdp.Structure
	q       *mdp.QTable
	quad    *regression.Quadratic
	sla     float64
	// floorRT guards against regression extrapolation below zero.
	floorRT float64
	// training is how the offline solve that produced q converged; zero for a
	// policy loaded from disk (it is not persisted).
	training mdp.BatchResult

	// intern holds the structure memoized across every agent warm-started
	// from this policy. It lives behind a pointer so a Policy value can be
	// copied (renamed store entries do this) without copying locks; copies
	// share the memo, which is correct — they share q and lattice too.
	intern *policyIntern
}

// policyIntern is the per-policy shared-structure memo: the copy-on-write
// seeded row store, built on the first SharedRows call.
type policyIntern struct {
	sharedOnce sync.Once
	shared     *mdp.SharedRows
}

// Name returns the policy's label (usually the context it was trained for).
func (p *Policy) Name() string { return p.name }

// Space returns the configuration space the policy covers.
func (p *Policy) Space() *config.Space { return p.space }

// SLA returns the SLA the policy was trained against.
func (p *Policy) SLA() float64 { return p.sla }

// PredictRT estimates the mean response time of a configuration from the
// fitted regression surface (a log-space quadratic; see LearnPolicy). It does
// not allocate: the group values live on the stack, not in shared scratch,
// because one Policy is read concurrently by every agent warm-started from it.
func (p *Policy) PredictRT(cfg config.Config) float64 {
	var buf [8]float64
	return p.predict(p.groups.AppendMeans(buf[:0], cfg))
}

// predict evaluates the regression surface at a vector of group values,
// floored against extrapolation. It does not allocate.
func (p *Policy) predict(vec []float64) float64 {
	return math.Max(math.Exp(p.quad.Eval(vec)), p.floorRT)
}

// groupStateKey returns the interned state key of the group lattice point the
// configuration snaps to, without building a string: the allocation-free core
// of the seeding hot path.
func (p *Policy) groupStateKey(cfg config.Config) string {
	return p.lattice.States()[p.groups.Ordinal(cfg)]
}

// Seeder returns an mdp.Seeder that initializes a full-lattice Q row from
// the group-level policy: a full action touching parameter i inherits the
// group action's value for i's group; keep inherits keep.
func (p *Policy) Seeder() mdp.Seeder {
	nActions := 2*p.space.Len() + 1
	return func(state string) []float64 {
		cfg, err := config.ParseKey(state)
		if err != nil || len(cfg) != p.space.Len() {
			return nil
		}
		gRow := p.q.Row(p.groupStateKey(cfg))
		row := make([]float64, nActions)
		row[0] = gRow[0]
		for i := 0; i < p.space.Len(); i++ {
			gi := p.groups.Of(i)
			row[1+2*i] = gRow[1+2*gi] // increase
			row[2+2*i] = gRow[2+2*gi] // decrease
		}
		return row
	}
}

// SharedRows returns the policy's copy-on-write row store: seeded Q rows
// computed once (from Seeder) and served read-only to every agent table that
// installs it. Agents sharing a context thereby share the seeded structure —
// memory O(contexts) — while their own updates stay in private delta rows.
func (p *Policy) SharedRows() *mdp.SharedRows {
	p.intern.sharedOnce.Do(func() {
		p.intern.shared = mdp.NewSharedRows(2*p.space.Len()+1, p.Seeder())
	})
	return p.intern.shared
}

// Recommend returns the configuration the offline policy considers best: the
// group-lattice point minimizing the fitted response-time surface, expanded
// to a full configuration. This is policy initialization put to operational
// use — an agent deployed with an offline-trained policy applies its
// recommendation up front and lets online learning refine from there,
// instead of walking out of the vendor default one reconfiguration per
// measurement interval. Ties and the argmin are resolved in lattice
// enumeration order, so the recommendation is deterministic for a given
// trained policy.
func (p *Policy) Recommend() (config.Config, error) {
	lattice := p.groups.Space()
	best, bestRT := -1, 0.0
	point := make(config.Config, lattice.Len())
	vec := make([]float64, lattice.Len())
	for ord := range p.lattice.States() {
		for gi, v := range lattice.At(uint64(ord), point) {
			vec[gi] = float64(v)
		}
		rt := math.Exp(p.quad.Eval(vec))
		if best < 0 || rt < bestRT {
			best, bestRT = ord, rt
		}
	}
	return p.groups.Expand(lattice.At(uint64(best), point))
}

// GroupQTable exposes the offline-trained group Q-table (diagnostics).
func (p *Policy) GroupQTable() *mdp.QTable { return p.q }

// Training reports how the offline solve that produced the group Q-table
// converged: sweeps run, the largest change of the last sweep, and whether
// that met the threshold before the sweep bound. It is not persisted — a
// loaded policy reports the zero value.
func (p *Policy) Training() mdp.BatchResult { return p.training }

// trainingMDP returns the offline training MDP in the form mdp.Solve takes:
// the shared group lattice (groupLattice) and the reward of entering each of
// its states, SLA − predictedRT.
func (p *Policy) trainingMDP() (*mdp.Structure, []float64) {
	lattice := p.groups.Space()
	rewards := make([]float64, len(p.lattice.States()))
	point := make(config.Config, lattice.Len())
	vec := make([]float64, lattice.Len())
	for ord := range rewards {
		for gi, v := range lattice.At(uint64(ord), point) {
			vec[gi] = float64(v)
		}
		rewards[ord] = p.sla - p.predict(vec)
	}
	return p.lattice, rewards
}
