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
// lacks, and only a joining state renders its key, calls the predictor for
// its reward prior, takes its transitions from Space.Transitions and (at the
// next layout) materializes its row. States are identified by lattice
// ordinal; the lattice is symmetric, so a joining state also completes its
// neighbours' reverse edges, and no held state's transitions are recomputed.
//
// The solve sees the states densely indexed in discovery order — each sample
// key in sorted order followed by its feasible neighbours in action order
// (Keep first, so a sample discovers itself). That is the Gauss–Seidel sweep
// order, and changing it moves the solve's last bits, so the region is laid
// out again whenever a sample joins.
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

	// The layout, by dense index: the structure (nil until a sample is valid)
	// and its transition table, each state's own table row, the reward of
	// entering it — measured where sampled, the prior elsewhere — and the
	// solve's scratch.
	structure *mdp.Structure
	trans     []int32
	rows      [][]float64
	rewards   []float64
	val       []float64

	// States that joined since the last layout, indexed on from len(rows):
	// key, reward prior and transitions (−1: infeasible or outside the
	// region). stale reports that a sample joined.
	newKeys    []string
	newRewards []float64
	newNext    []int32
	stale      bool
}

// newRegion returns the region of samples over the agent's table q.
func newRegion(space *config.Space, q *mdp.QTable, predict func(config.Config) float64, sla float64,
	samples map[string]float64) *region {
	r := &region{space: space, actions: config.Actions(space), q: q, predict: predict, sla: sla, stale: true}
	for key := range samples {
		r.add(key) // the layout does not depend on the order states join in
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
	next := make(config.Config, len(cfg))
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
// transitions.
func (r *region) join(ord uint64, key string, cfg config.Config) int32 {
	j, held := slices.BinarySearch(r.ords, ord)
	if held {
		return r.ordIdx[j]
	}
	n0, actions := len(r.rows), len(r.actions)
	idx := int32(n0 + len(r.newKeys))
	r.ords = slices.Insert(r.ords, j, ord)
	r.ordIdx = slices.Insert(r.ordIdx, j, idx)
	if key == "" {
		key = cfg.Key()
	}
	prior := 0.0
	if r.predict != nil {
		prior = r.sla - r.predict(cfg)
	}
	r.newKeys = append(r.newKeys, key)
	r.newRewards = append(r.newRewards, prior)
	next := r.space.Transitions([]uint64{ord}, r.index)
	next[0] = idx // Transitions numbers Keep by position in its argument
	for a := 1; a < actions; a++ {
		if p := int(next[a]) - n0; p >= 0 { // a neighbour that joined since the last layout
			r.newNext[p*actions+inverse(a)] = idx
		}
	}
	r.newNext = append(r.newNext, next...)
	return idx
}

// layout indexes the region densely in discovery order, moving every held
// state's key, row, reward and transitions to its new index and materializing
// the rows of the states that joined since the last layout.
func (r *region) layout() error {
	actions, n0 := len(r.actions), len(r.rows)
	n := n0 + len(r.newKeys)
	// Link the laid-out states to the states that joined: the lattice is
	// symmetric, so those edges are the new states' own, reversed. The table
	// patched is the outgoing structure's, which this layout replaces.
	for k := range r.newKeys {
		for a := 1; a < actions; a++ {
			if to := r.newNext[k*actions+a]; to >= 0 && int(to) < n0 {
				r.trans[int(to)*actions+inverse(a)] = int32(n0 + k)
			}
		}
	}
	// next returns state s's transitions by current index.
	next := func(s int32) []int32 {
		if k := int(s) - n0; k >= 0 {
			return r.newNext[k*actions : (k+1)*actions]
		}
		return r.trans[int(s)*actions : (int(s)+1)*actions]
	}

	dense := make([]int32, n)
	for s := range dense {
		dense[s] = -1
	}
	order := make([]int32, 0, n)
	for _, s := range r.sampleIdx {
		for _, to := range next(s) {
			if to >= 0 && dense[to] < 0 {
				dense[to] = int32(len(order))
				order = append(order, to)
			}
		}
	}

	fresh := r.q.OwnRows(r.newKeys)
	states := make([]string, n)
	trans := make([]int32, n*actions)
	rows := make([][]float64, n)
	rewards := make([]float64, n)
	for d, s := range order {
		if k := int(s) - n0; k >= 0 {
			states[d], rows[d], rewards[d] = r.newKeys[k], fresh[k], r.newRewards[k]
		} else {
			states[d], rows[d], rewards[d] = r.structure.States()[s], r.rows[s], r.rewards[s]
		}
		for a, to := range next(s) {
			if to >= 0 {
				to = dense[to]
			}
			trans[d*actions+a] = to
		}
	}
	st, err := mdp.NewStructureFromTransitions(states, actions, trans)
	if err != nil {
		return err // no valid sample yet
	}
	for i, s := range r.sampleIdx {
		r.sampleIdx[i] = dense[s]
	}
	for i, s := range r.ordIdx {
		r.ordIdx[i] = dense[s]
	}
	r.structure, r.trans, r.rows, r.rewards = st, trans, rows, rewards
	r.val = slices.Grow(r.val[:0], n)[:n]
	r.newKeys, r.newRewards, r.newNext, r.stale = nil, nil, nil, false
	return nil
}

// bind lays the region out if a sample joined since the last layout, then
// writes the interval's measurements over the sample states' rewards.
func (r *region) bind(samples map[string]float64) error {
	if r.stale {
		if err := r.layout(); err != nil {
			return err
		}
	}
	for i, key := range r.samples {
		r.rewards[r.sampleIdx[i]] = r.sla - samples[key]
	}
	return nil
}

// solve retrains the agent's rows over the region with the interval's
// rewards: mdp.Solve on the rows the region holds.
func (r *region) solve(samples map[string]float64, cfg mdp.BatchConfig) (mdp.BatchResult, error) {
	if err := r.bind(samples); err != nil {
		return mdp.BatchResult{}, err
	}
	return mdp.Solve(r.rows, r.structure, r.rewards, r.val, cfg)
}
