package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
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
	// (groupLattice).
	groups  *config.Grouping
	lattice *mdp.Structure
	// values is the offline group Q-table in the form the solve leaves it,
	// from which rowAt derives a row (lattice.Row): the value of entering
	// each lattice state, by ordinal, before and after the last sweep.
	// Infeasible entries hold 0.
	values mdp.Values
	quad   *regression.Quadratic
	sla    float64
	// floorRT guards against regression extrapolation below zero.
	floorRT float64
	// schedule is the offline schedule the table was solved under, and
	// training how that solve converged (solve).
	schedule mdp.BatchConfig
	training mdp.BatchResult
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

// rowAt appends group-lattice state ord's Q row to dst, one value per
// action of the lattice (see Policy.values).
func (p *Policy) rowAt(dst []float64, ord int) []float64 {
	n, a := len(dst), p.lattice.Actions()
	dst = slices.Grow(dst, a)[:n+a]
	clear(dst[n:])
	p.lattice.Row(&p.values, ord, dst[n:])
	return dst
}

// SeedRow writes into row (one value per action of the full space) the Q row
// the group-level policy gives configuration cfg: each action's value is the
// group row's at seedIndex. It does not allocate.
func (p *Policy) SeedRow(cfg config.Config, row []float64) {
	var buf [16]float64 // a space has at most five groups, so eleven group actions
	group := p.rowAt(buf[:0], int(p.groupOf(cfg)))
	for a := range row {
		row[a] = group[p.seedIndex(a)]
	}
}

// groupOf returns the group-lattice state configuration cfg snaps to.
func (p *Policy) groupOf(cfg config.Config) int32 { return int32(p.groups.Ordinal(cfg)) }

// seedEntry returns the value action a of the full space inherits at a
// configuration in group-lattice state g: the group row's at seedIndex(a).
// An agent's region reads an entry no retrain has set this way.
func (p *Policy) seedEntry(g int32, a int) float64 {
	return p.lattice.Entry(&p.values, int(g), p.seedIndex(a))
}

// seedIndex maps an action of the full space to the group action whose value
// it inherits: keep inherits keep, and a move of parameter i the same move of
// i's group (config.Actions lists each parameter's increase, then its
// decrease, after Keep, for the space and its group lattice alike).
func (p *Policy) seedIndex(a int) int {
	if a == 0 {
		return 0
	}
	return 1 + 2*p.groups.Of((a-1)/2) + (a-1)%2
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

// Training reports how the offline solve that produced the group Q-table
// converged: sweeps run, the largest change of the last sweep, and whether
// that met the threshold before the sweep bound. LoadPolicy runs that solve
// again, so a loaded policy reports what the trained one did.
func (p *Policy) Training() mdp.BatchResult { return p.training }

// Schedule returns the offline schedule the group Q-table was solved under
// (InitOptions.Batch, or DefaultOfflineBatch when that was zero).
func (p *Policy) Schedule() mdp.BatchConfig { return p.schedule }

// Digest returns the hex SHA-256 of the policy's trained content, its name
// aside: the group Q-table's values by ordinal, the regression coefficients,
// the floor RT and the SLA, as little-endian IEEE-754 bits. No document is
// built: the table's entries go through the hash via one small buffer.
func (p *Policy) Digest() string {
	h := sha256.New()
	b := make([]byte, 0, 512)
	put := func(v float64) {
		if len(b) == cap(b) {
			h.Write(b) // a hash's Write never fails
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	row := make([]float64, 0, p.lattice.Actions())
	for ord := range p.lattice.Len() {
		for _, v := range p.rowAt(row[:0], ord) {
			put(v)
		}
	}
	for _, c := range p.quad.Coeffs() {
		put(c)
	}
	put(p.floorRT)
	put(p.sla)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// trainingMDP returns the offline training MDP in the form mdp.Solve takes:
// the shared group lattice (groupLattice) and the reward of entering each of
// its states, SLA − predictedRT. The rewards are computed on the worker pool:
// the states are split into one contiguous ordinal range per worker of popts,
// each with its own scratch, and a reward depends on its ordinal alone, so the
// slice is the same for any worker count.
func (p *Policy) trainingMDP(popts parallel.Options) (*mdp.Structure, []float64) {
	lattice := p.groups.Space()
	rewards := make([]float64, len(p.lattice.States()))
	chunks := popts.Workers(len(rewards))
	_ = parallel.ForEach(popts, chunks, func(c int) error { // returns only the work's errors, and this work has none
		point := make(config.Config, lattice.Len())
		vec := make([]float64, lattice.Len())
		for ord := c * len(rewards) / chunks; ord < (c+1)*len(rewards)/chunks; ord++ {
			for gi, v := range lattice.At(uint64(ord), point) {
				vec[gi] = float64(v)
			}
			rewards[ord] = p.sla - p.predict(vec)
		}
		return nil
	})
	return p.lattice, rewards
}

// solve is Algorithm 2's offline RL pass over the group lattice, the one
// LearnPolicyStream ends with and LoadPolicy runs again: it binds the policy
// to its grouping's shared training MDP (groupLattice), prices each lattice
// state's reward from the policy's surface (trainingMDP, on popts's workers)
// and solves the MDP from zeros under batch (mdp.Solve). The solve needs no
// slab: it sweeps the state values the policy keeps (Policy.values). A value
// that is NaN or infinite is an error, so no policy seeds an agent with one.
func (p *Policy) solve(batch mdp.BatchConfig, popts parallel.Options) (err error) {
	if p.lattice, err = groupLattice(p.groups.Space()); err != nil {
		return fmt.Errorf("core: offline training: %w", err)
	}
	structure, rewards := p.trainingMDP(popts)
	res, err := mdp.Solve(nil, structure, rewards, &p.values, batch)
	if err != nil {
		return fmt.Errorf("core: offline training: %w", err)
	}
	for _, vs := range [][]float64{p.values.Prev, p.values.Val} {
		for s, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: offline training: state %q solves to %v", structure.States()[s], v)
			}
		}
	}
	p.schedule, p.training = batch, res
	return nil
}
