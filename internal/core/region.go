package core

import (
	"slices"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
)

// region is the bounded configuration MDP an agent retrains over (Algorithm 3
// step 9): every state it has measured plus the one-action frontier around
// them. The full Table 1 lattice has ~1.9·10⁸ states, so the bounded region
// keeps retraining O(visited states) while the Seeder generalizes the offline
// policy everywhere else.
//
// A region belongs to one agent and its Q-table, and grows in place: a first
// visit to a state joins the state and whichever of its neighbours the region
// lacks. A joining state takes the next index and keeps it for as long as the
// region lives; only it renders its key, calls the predictor for its reward
// prior, appends its transitions from Space.Transitions and (at the next
// bind) materializes its row. States are identified by lattice ordinal; the
// lattice is symmetric, so a joining state also completes its neighbours'
// reverse edges, and no held state's transitions are recomputed.
//
// The solve sweeps the states in discovery order — each sample key in sorted
// order followed by its feasible neighbours in action order (Keep first, so a
// sample discovers itself). That is the Gauss–Seidel sweep order, and
// changing it moves the solve's last bits, so when a sample joins the region
// recomputes the order and recompiles the structure's feasible-action lists
// around it; no state moves.
type region struct {
	space   *config.Space
	actions []config.Action
	q       *mdp.QTable
	predict func(config.Config) float64 // nil: unmeasured states are SLA-neutral
	sla     float64

	// samples are the valid sample keys, sorted, and sampleIdx the state of
	// each; ords are every state's lattice ordinal, ascending, and ordIdx the
	// state of each.
	samples   []string
	sampleIdx []int32
	ords      []uint64
	ordIdx    []int32

	// By state index: the structure, grown in place and compiled when a
	// sample joins; each state's own table row, materialized at the first
	// bind after it joins; the reward of entering it — measured where
	// sampled, the prior elsewhere — and the solve's scratch.
	structure *mdp.GrowingStructure
	rows      [][]float64
	rewards   []float64
	val       []float64

	// Scratch reused across joins and compiles: a neighbour's configuration
	// and a joining state's transitions; and the discovery order, which the
	// structure keeps as its sweep order.
	cfg   config.Config
	next  []int32
	order []int32
	stale bool // a sample joined since the last compile
}

// newRegion returns the region of samples over the agent's table q.
func newRegion(space *config.Space, q *mdp.QTable, predict func(config.Config) float64, sla float64,
	samples map[string]float64) *region {
	actions := config.Actions(space)
	r := &region{space: space, actions: actions, q: q, predict: predict, sla: sla,
		structure: mdp.NewGrowingStructure(len(actions)), cfg: make(config.Config, space.Len()), stale: true}
	for key := range samples {
		r.add(key) // the sweep order does not depend on the order states join in
	}
	return r
}

// add grows the region by a sample key. A key already held is a no-op; so is
// one that does not parse, validate against the space and render back to
// itself — canonical keys make state identity and lattice-point identity the
// same thing.
func (r *region) add(key string) {
	i, held := slices.BinarySearch(r.samples, key)
	if held {
		return
	}
	cfg, err := config.ParseKey(key)
	if err != nil || r.space.Validate(cfg) != nil || cfg.Key() != key {
		return
	}
	r.samples = slices.Insert(r.samples, i, key)
	r.sampleIdx = slices.Insert(r.sampleIdx, i, r.join(r.space.Ordinal(cfg), key, cfg))
	next := r.cfg
	for _, act := range r.actions[1:] {
		if !act.Feasible(r.space, cfg) {
			continue
		}
		copy(next, cfg)
		next[act.ParamIndex] += int(act.Dir) * r.space.Def(act.ParamIndex).Step
		r.join(r.space.Ordinal(next), "", next)
	}
	r.stale = true
}

// index returns the state at lattice ordinal ord, or −1 when the region lacks
// it.
func (r *region) index(ord uint64) int32 {
	if k, found := slices.BinarySearch(r.ords, ord); found {
		return r.ordIdx[k]
	}
	return -1
}

// inverse returns the action undoing non-Keep action a: config.Actions lists
// each parameter's increase and decrease side by side after Keep.
func inverse(a int) int { return (a - 1) ^ 1 + 1 }

// join returns the state at lattice ordinal ord, adding it when the region
// lacks it: its key (cfg's rendering unless key is given), reward prior and
// transitions, with its neighbours' edges back to it.
func (r *region) join(ord uint64, key string, cfg config.Config) int32 {
	j, held := slices.BinarySearch(r.ords, ord)
	if held {
		return r.ordIdx[j]
	}
	idx := int32(len(r.rewards))
	r.ords = slices.Insert(r.ords, j, ord)
	r.ordIdx = slices.Insert(r.ordIdx, j, idx)
	if key == "" {
		key = cfg.Key()
	}
	prior := 0.0
	if r.predict != nil {
		prior = r.sla - r.predict(cfg)
	}
	r.rewards = append(r.rewards, prior)
	r.next = r.space.Transitions(r.next[:0], []uint64{ord}, r.index)
	r.next[0] = idx // Transitions numbers Keep by position in its argument
	r.structure.Append(key, r.next)
	for a, to := range r.next[1:] {
		if to >= 0 {
			r.structure.Link(int(to), inverse(a+1), idx)
		}
	}
	return idx
}

// compile recomputes the discovery order, recompiles the structure around it
// and materializes the rows of the states that joined since the last compile.
func (r *region) compile() error {
	st, n := r.structure, len(r.rewards)
	// The solve's scratch is free until the solve: it marks the states found.
	r.val = slices.Grow(r.val[:0], n)[:n]
	clear(r.val)
	r.order = r.order[:0]
	for _, s := range r.sampleIdx {
		for a := range r.actions {
			if to := st.Next(int(s), a); to >= 0 && r.val[to] == 0 {
				r.val[to] = 1
				r.order = append(r.order, int32(to))
			}
		}
	}
	if len(r.order) != n {
		panic("core: the region's discovery order misses a state")
	}
	if err := st.Compile(r.order); err != nil {
		return err // no valid sample yet
	}
	r.rows = append(r.rows, r.q.OwnRows(st.States()[len(r.rows):])...)
	r.stale = false
	return nil
}

// bind compiles the region if a sample joined since the last compile, then
// writes the interval's measurements over the sample states' rewards.
func (r *region) bind(samples map[string]float64) error {
	if r.stale {
		if err := r.compile(); err != nil {
			return err
		}
	}
	for i, key := range r.samples {
		r.rewards[r.sampleIdx[i]] = r.sla - samples[key]
	}
	return nil
}

// solve retrains the agent's rows over the region with the interval's
// rewards: mdp.Solve on the rows the region holds, in discovery order.
func (r *region) solve(samples map[string]float64, cfg mdp.BatchConfig) (mdp.BatchResult, error) {
	if err := r.bind(samples); err != nil {
		return mdp.BatchResult{}, err
	}
	return mdp.Solve(r.rows, &r.structure.Structure, r.rewards, r.val, cfg)
}
