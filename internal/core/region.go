package core

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
)

// region is the agent's Q-table and the bounded configuration MDP it retrains
// over (Algorithm 3 step 9): every state the agent has measured plus the
// one-action frontier around them. The full Table 1 lattice has ~1.9·10⁸
// states, so the bounded region keeps retraining O(visited states) while the
// initial policy generalizes everywhere else: a state the region lacks reads
// as the row the policy seeds for it.
//
// A region belongs to one agent and grows in place: a first visit to a state
// joins the state and whichever of its neighbours the region lacks. A joining
// state takes the next index and keeps it for as long as the region lives;
// only it is priced — its reward prior from the policy's prediction — and
// only it appends its transitions from Space.Transitions. States are
// identified by lattice ordinal; the lattice is symmetric, so a joining state
// also completes its neighbours' reverse edges, and no held state's
// transitions are recomputed. Keys are rendered only to order the samples,
// and at the persistence edge.
//
// The region stores no rows: its structure keeps the values the last
// retrain left (mdp.GrowingStructure) and derives the entries it set. Any
// other entry holds what it held when its state joined — a stored row, else
// the policy's seeded row, else zeros — derived again on reading.
//
// The solve sweeps the states in discovery order — each sample in key order
// followed by its feasible neighbours in action order (Keep first, so a sample
// discovers itself). That is the Gauss–Seidel sweep order, and changing it
// moves the solve's last bits, so when a sample joins the region recomputes
// the order around it; no state moves.
type region struct {
	space   *config.Space
	actions []config.Action
	// seedKey names the row the policy seeds for a joining state, and seed
	// reads entry a of the row a key names (nil: zero rows); predict prices
	// a joining state's reward prior (nil: unmeasured states are SLA-neutral).
	seedKey func(cfg config.Config) int32
	seed    func(key int32, a int) float64
	predict func(config.Config) float64
	sla     float64

	// samples are the sampled states' lattice ordinals, sorted by key, and
	// sampleIdx the state of each; ords are every state's lattice ordinal,
	// ascending, and ordIdx the state of each.
	samples   []uint64
	sampleIdx []int32
	ords      []uint64
	ordIdx    []int32

	// By state index: the structure, grown in place and compiled when a
	// sample joins, with the values the last solve left; whether the state
	// is a sample, and its measured mean response time if so; the reward of
	// entering the state — measured where sampled, the prior elsewhere — and
	// the key of its seeded row.
	structure *mdp.GrowingStructure
	sampled   []bool
	rt        []float64
	rewards   []float64
	keys      []int32

	// stored are the rows no policy derives held for states outside the
	// region, by lattice ordinal: restored rows not yet joined, and the zero
	// rows an agent without a policy reads when it chooses at a state it has
	// not measured. A joining state takes its stored row into joined, by
	// index, as the row it joined with.
	stored map[uint64][]float64
	joined map[int32][]float64

	// row is the row held last derived.
	row []float64

	// Scratch reused across joins and compiles: a neighbour's configuration,
	// a joining state's transitions, two rendered keys; the discovery order,
	// which the structure keeps as its sweep order, and the states it found.
	cfg        config.Config
	next       []int32
	key, probe []byte
	order      []int32
	found      []uint64
	stale      bool // a sample joined since the last compile
}

// newRegion returns an empty region over space, whose actions are
// config.Actions(space). p seeds joining rows and prices their reward priors;
// nil seeds zero rows with SLA-neutral priors.
func newRegion(space *config.Space, actions []config.Action, p *Policy, sla float64) *region {
	r := &region{space: space, actions: actions, sla: sla, structure: mdp.NewGrowingStructure(len(actions)),
		row: make([]float64, len(actions)), cfg: make(config.Config, space.Len())}
	if p != nil {
		r.seedKey, r.seed, r.predict = p.groupOf, p.seedEntry, p.PredictRT
	}
	return r
}

// held returns the row the agent holds for the state at lattice ordinal ord —
// the region's, derived into a buffer the next call reuses, else a stored
// one — or nil; a nil region holds none.
func (r *region) held(ord uint64) []float64 {
	if r == nil {
		return nil
	}
	if i := r.index(ord); i >= 0 {
		r.structure.Row(int(i), r.row, r.fallback)
		return r.row
	}
	return r.stored[ord]
}

// fallback returns what entry a of state i holds while no solve sets it: the
// entry of the row the state joined with.
func (r *region) fallback(i, a int) float64 {
	if row, ok := r.joined[int32(i)]; ok {
		return row[a]
	}
	if r.seed == nil {
		return 0
	}
	return r.seed(r.keys[i], a)
}

// hold returns a zero stored row for ord, a state the agent holds no row for.
func (r *region) hold(ord uint64) []float64 {
	if r.stored == nil {
		r.stored = make(map[uint64][]float64)
	}
	row := make([]float64, len(r.actions))
	r.stored[ord] = row
	return row
}

// record folds a measured mean response time into the sample table: a repeat
// visit averages it into the state's sample, a first one makes the state a
// sample, growing the region by it and its neighbours. cfg is the state's
// configuration and ord its lattice ordinal.
func (r *region) record(ord uint64, cfg config.Config, rt float64) {
	i := r.index(ord)
	if i >= 0 && r.sampled[i] {
		r.rt[i] = 0.5*r.rt[i] + 0.5*rt
		return
	}
	r.key = appendKey(r.key[:0], cfg)
	k, _ := slices.BinarySearchFunc(r.samples, r.key, func(s uint64, key []byte) int {
		r.probe = appendKey(r.probe[:0], r.space.At(s, r.cfg))
		return bytes.Compare(r.probe, key)
	})
	if i < 0 {
		i = r.join(ord, cfg)
	}
	r.sampled[i], r.rt[i] = true, rt
	r.samples = slices.Insert(r.samples, k, ord)
	r.sampleIdx = slices.Insert(r.sampleIdx, k, i)
	next := r.cfg
	for _, act := range r.actions[1:] {
		if !act.Feasible(r.space, cfg) {
			continue
		}
		copy(next, cfg)
		next[act.ParamIndex] += int(act.Dir) * r.space.Def(act.ParamIndex).Step
		r.join(r.space.Ordinal(next), next)
	}
	r.stale = true
}

// export renders the rows the agent holds and its sample table at the
// persistence edge, keyed by configuration key and sharing no storage with
// the region; samples is nil when there are none, and a nil region exports
// an empty table.
func (r *region) export() (rows map[string][]float64, samples map[string]float64) {
	if r == nil {
		return map[string][]float64{}, nil
	}
	a := len(r.actions)
	rows = make(map[string][]float64, len(r.ords)+len(r.stored))
	slab := make([]float64, 0, (len(r.ords)+len(r.stored))*a)
	cfg := make(config.Config, r.space.Len())
	put := func(ord uint64) []float64 {
		slab = slab[:len(slab)+a]
		row := slab[len(slab)-a : len(slab) : len(slab)]
		rows[r.space.At(ord, cfg).Key()] = row
		return row
	}
	for k, ord := range r.ords {
		r.structure.Row(int(r.ordIdx[k]), put(ord), r.fallback)
	}
	for ord, row := range r.stored {
		copy(put(ord), row)
	}
	if len(r.samples) > 0 {
		samples = make(map[string]float64, len(r.samples))
		for k, ord := range r.samples {
			samples[r.space.At(ord, cfg).Key()] = r.rt[r.sampleIdx[k]]
		}
	}
	return rows, samples
}

// restore fills an empty region from a snapshot's Q-table and sample table:
// the rows become the agent's stored rows, then every sample joins with its
// neighbours, each joining state keeping its row. A snapshot is the
// persistence edge, so it is checked where the string keys turn into lattice
// ordinals: every key must be the canonical key of a configuration of the
// space, the table's initial value must be the 0 an agent's table has, and
// every state of the region must have a row — an agent exports the rows of
// every state its region holds.
func (r *region) restore(table *mdp.QTableJSON, samples map[string]float64) error {
	if table.Initial != 0 {
		return fmt.Errorf("core: snapshot Q-table initial value %v, want 0", table.Initial)
	}
	r.stored = make(map[uint64][]float64, len(table.Rows))
	backing := make([]float64, len(table.Rows)*len(r.actions))
	for key, row := range table.Rows {
		cfg, err := snapshotKey(r.space, key)
		if err != nil {
			return fmt.Errorf("core: restore qtable: %w", err)
		}
		if len(row) != len(r.actions) {
			return fmt.Errorf("core: restore qtable: state %q has %d actions, want %d", key, len(row), len(r.actions))
		}
		own := backing[:len(row):len(row)]
		backing = backing[len(row):]
		copy(own, row)
		r.stored[r.space.Ordinal(cfg)] = own
	}
	for key, rt := range samples {
		cfg, err := snapshotKey(r.space, key)
		if err != nil {
			return fmt.Errorf("core: restore samples: %w", err)
		}
		r.record(r.space.Ordinal(cfg), cfg, rt)
	}
	if seeded := len(r.ords) - len(r.joined); seeded != 0 {
		return fmt.Errorf("core: snapshot lacks the rows of %d of its region's %d states", seeded, len(r.ords))
	}
	if len(r.stored) == 0 {
		r.stored = nil
	}
	return nil
}

// snapshotKey parses a snapshot's state key: the canonical key of a
// configuration of space.
func snapshotKey(space *config.Space, key string) (config.Config, error) {
	cfg, err := config.ParseKey(key)
	if err != nil {
		return nil, err
	}
	if err := space.Validate(cfg); err != nil {
		return nil, err
	}
	if cfg.Key() != key {
		return nil, fmt.Errorf("state %q is not its configuration's key %q", key, cfg.Key())
	}
	return cfg, nil
}

// appendKey appends cfg's key (config.Config.Key) to buf.
func appendKey(buf []byte, cfg config.Config) []byte {
	for i, v := range cfg {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return buf
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
// lacks it: its reward prior and transitions, with its neighbours' edges back
// to it.
func (r *region) join(ord uint64, cfg config.Config) int32 {
	k, held := slices.BinarySearch(r.ords, ord)
	if held {
		return r.ordIdx[k]
	}
	idx := int32(len(r.rewards))
	r.ords = slices.Insert(r.ords, k, ord)
	r.ordIdx = slices.Insert(r.ordIdx, k, idx)
	if row, ok := r.stored[ord]; ok {
		if r.joined == nil {
			r.joined = make(map[int32][]float64)
		}
		r.joined[idx] = row
		delete(r.stored, ord)
	}
	prior := 0.0
	if r.predict != nil {
		prior = r.sla - r.predict(cfg)
	}
	r.rewards = append(r.rewards, prior)
	if r.seedKey != nil {
		r.keys = append(r.keys, r.seedKey(cfg))
	}
	r.sampled = append(r.sampled, false)
	r.rt = append(r.rt, 0)
	r.next = r.space.Transitions(r.next[:0], []uint64{ord}, r.index)
	r.next[0] = idx // Transitions numbers Keep by position in its argument
	r.structure.Append(r.next)
	for a, to := range r.next[1:] {
		if to >= 0 {
			r.structure.Link(int(to), inverse(a+1), idx)
		}
	}
	return idx
}

// compile recomputes the discovery order and compiles the structure around
// it.
func (r *region) compile() error {
	st, n := r.structure, len(r.rewards)
	r.found = slices.Grow(r.found[:0], (n+63)/64)[:(n+63)/64]
	clear(r.found)
	r.order = r.order[:0]
	for _, s := range r.sampleIdx {
		next, _ := st.Moves(int(s))
		for _, to := range next {
			if r.found[to/64]&(1<<(to%64)) == 0 {
				r.found[to/64] |= 1 << (to % 64)
				r.order = append(r.order, to)
			}
		}
	}
	if err := st.Compile(r.order); err != nil {
		return err // no sample yet, or an order missing a state
	}
	r.stale = false
	return nil
}

// bind compiles the region if a sample joined since the last compile, then
// writes the samples' measurements over their rewards.
func (r *region) bind() error {
	if r.stale || len(r.rewards) == 0 {
		if err := r.compile(); err != nil {
			return err
		}
	}
	for _, s := range r.sampleIdx {
		r.rewards[s] = r.sla - r.rt[s]
	}
	return nil
}

// solve retrains the region's values with the interval's rewards, in
// discovery order, from the rows it holds.
func (r *region) solve(cfg mdp.BatchConfig) (mdp.BatchResult, error) {
	if err := r.bind(); err != nil {
		return mdp.BatchResult{}, err
	}
	return r.structure.Solve(r.rewards, r.fallback, cfg)
}
