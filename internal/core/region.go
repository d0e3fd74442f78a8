package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
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
// other entry reads the policy's seeded row, else zeros, derived again on
// reading. Those values and the sample table are all it learns, and all a
// snapshot of it holds (export, restore).
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

	// samples are the sampled states' lattice ordinals, sorted by key,
	// sampleIdx the state of each and rt its measured mean response time;
	// ords are every state's lattice ordinal, ascending, and ordIdx the
	// state of each.
	samples   []uint64
	sampleIdx []int32
	rt        []float64
	ords      []uint64
	ordIdx    []int32

	// By state index: the structure, grown in place and compiled when a
	// sample joins, with the values the last solve left; the reward of
	// entering the state — measured where sampled, the prior elsewhere — and
	// the key of its seeded row.
	structure *mdp.GrowingStructure
	rewards   []float64
	keys      []int32

	// row is the buffer held derives a row into: its agent's (Agent.row).
	row []float64

	// order is the discovery order, which the structure keeps as its sweep
	// order; stale says a sample joined since the last compile.
	order []int32
	stale bool
}

// regionScratch is what one record or one compile works in and no region
// keeps: a neighbour's configuration, a joining state's transitions, two
// rendered keys, and the states a compile's discovery found.
type regionScratch struct {
	cfg        config.Config
	next       []int32
	key, probe []byte
	found      []uint64
}

// lent lends scratch to whichever goroutine runs a record or a compile; no
// region keeps any of it.
var lent parallel.Lender[regionScratch]

// newRegion returns an empty region over space, whose actions are
// config.Actions(space), deriving held rows into row, one entry per action.
// p seeds joining rows and prices their reward priors; nil seeds zero rows
// with SLA-neutral priors.
func newRegion(space *config.Space, actions []config.Action, p *Policy, sla float64, row []float64) *region {
	r := &region{space: space, actions: actions, sla: sla, structure: mdp.NewGrowingStructure(len(actions)), row: row}
	if p != nil {
		r.seedKey, r.seed, r.predict = p.groupOf, p.seedEntry, p.PredictRT
	}
	return r
}

// held returns the row the region holds for the state at lattice ordinal
// ord, derived into a buffer the next call reuses, or nil when it lacks the
// state; a nil region holds none.
func (r *region) held(ord uint64) []float64 {
	if r == nil {
		return nil
	}
	if i := r.index(ord); i >= 0 {
		r.structure.Row(int(i), r.row, r.fallback)
		return r.row
	}
	return nil
}

// fallback returns what entry a of state i holds while no solve sets it: the
// policy's seeded entry, else 0.
func (r *region) fallback(i, a int) float64 {
	if r.seed == nil {
		return 0
	}
	return r.seed(r.keys[i], a)
}

// record folds a measured mean response time into the sample table: a repeat
// visit averages it into the state's sample, a first one makes the state a
// sample, growing the region by it and its neighbours. cfg is the state's
// configuration and ord its lattice ordinal.
func (r *region) record(ord uint64, cfg config.Config, rt float64) {
	i := r.index(ord)
	if k := slices.Index(r.sampleIdx, i); k >= 0 {
		r.rt[k] = 0.5*r.rt[k] + 0.5*rt
		return
	}
	w := lent.Borrow()
	defer lent.GiveBack(w)
	w.cfg = slices.Grow(w.cfg[:0], r.space.Len())[:r.space.Len()]
	w.key = appendKey(w.key[:0], cfg)
	k, _ := slices.BinarySearchFunc(r.samples, w.key, func(s uint64, key []byte) int {
		w.probe = appendKey(w.probe[:0], r.space.At(s, w.cfg))
		return bytes.Compare(w.probe, key)
	})
	if i < 0 {
		i = r.join(ord, cfg, w)
	}
	r.samples = slices.Insert(r.samples, k, ord)
	r.sampleIdx = slices.Insert(r.sampleIdx, k, i)
	r.rt = slices.Insert(r.rt, k, rt)
	next := w.cfg
	for _, act := range r.actions[1:] {
		if !act.Feasible(r.space, cfg) {
			continue
		}
		copy(next, cfg)
		next[act.ParamIndex] += int(act.Dir) * r.space.Def(act.ParamIndex).Step
		r.join(r.space.Ordinal(next), next, w)
	}
	r.stale = true
}

// export writes the region's sample table into st, by configuration key,
// and the values its last retrain left, listed in the sweep order: every
// state took part in it, as after every step. A nil region writes nothing.
func (r *region) export(st *AgentState) error {
	if r == nil {
		return nil
	}
	prev, val, forward := r.structure.Solved()
	if n := len(r.rewards); r.stale || len(val) != n {
		return fmt.Errorf("core: export: %d of the region's %d states took part in its last retrain", len(val), n)
	}
	st.Prev, st.Val, st.Forward = make([]float64, len(val)), make([]float64, len(val)), forward
	for p, s := range r.order {
		st.Prev[p], st.Val[p] = prev[s], val[s]
	}
	cfg := make(config.Config, r.space.Len())
	st.Samples = make(map[string]float64, len(r.samples))
	for k, ord := range r.samples {
		st.Samples[r.space.At(ord, cfg).Key()] = r.rt[k]
	}
	return nil
}

// restore fills an empty region from a snapshot: every sample joins with its
// neighbours and the region compiles, then the values of the exporting
// region's last retrain install, so every row derives as it did there. A
// version-2 snapshot lists them in the sweep order, which the samples alone
// determine; a version-1 one held rows instead (restoreRows).
func (r *region) restore(st *AgentState) error {
	for key, rt := range st.Samples {
		cfg, err := snapshotKey(r.space, key)
		if err != nil {
			return fmt.Errorf("core: restore samples: %w", err)
		}
		r.record(r.space.Ordinal(cfg), cfg, rt)
	}
	n := len(r.rewards)
	if err := r.compile(); err != nil && n > 0 { // an empty region has nothing to compile
		return fmt.Errorf("core: restore: %w", err)
	}
	if st.QTable != nil {
		return r.restoreRows(st.QTable)
	}
	if len(st.Prev) != n || len(st.Val) != n {
		return fmt.Errorf("core: snapshot holds %d and %d values for its region's %d states", len(st.Prev), len(st.Val), n)
	}
	prev, val := make([]float64, n), make([]float64, n)
	for p, s := range r.order {
		prev[s], val[s] = st.Prev[p], st.Val[p]
	}
	return r.structure.Install(prev, val, st.Forward)
}

// restoreRows installs the values a version-1 snapshot's rows derive from.
// Every state took part in the exporting region's last retrain, so a row's
// Keep entry is its state's Prev, and an entry leading to a state the last
// sweep reached first is that state's Val (0 where none does: nothing reads
// it). In one direction of that sweep the values, with the seeded row
// (zeros without a policy) where no retrain sets an entry, must derive every
// row bit for bit, outside the region too; else the snapshot is refused.
func (r *region) restoreRows(table *mdp.QTableJSON) error {
	if table.Actions != len(r.actions) || table.Initial != 0 {
		return fmt.Errorf("core: snapshot Q-table of %d actions, initial value %v; want %d, 0", table.Actions, table.Initial, len(r.actions))
	}
	n := len(r.rewards)
	rows, seeded := make([][]float64, n), make([]float64, len(r.actions))
	for key, row := range table.Rows {
		cfg, err := snapshotKey(r.space, key)
		if err != nil {
			return fmt.Errorf("core: restore qtable: %w", err)
		}
		if i := r.index(r.space.Ordinal(cfg)); i >= 0 {
			rows[i] = row
			continue
		}
		for a := range seeded {
			if seeded[a] = 0; r.seed != nil {
				seeded[a] = r.seed(r.seedKey(cfg), a)
			}
		}
		if !sameBits(row, seeded) {
			return fmt.Errorf("core: restore qtable: state %q outside the region holds %v, not %v", key, row, seeded)
		}
	}
	prev, val, pos := make([]float64, n), make([]float64, n), make([]int32, n)
	for p, s := range r.order {
		if len(rows[s]) != len(r.actions) {
			return fmt.Errorf("core: restore qtable: a state of the region has %d entries, want %d", len(rows[s]), len(r.actions))
		}
		pos[s], prev[s] = int32(p), rows[s][0]
	}
	for _, forward := range []bool{true, false} {
		for s := range n {
			next, act := r.structure.Moves(s)
			for j, to := range next {
				if forward && pos[to] < pos[s] || !forward && pos[to] > pos[s] {
					val[to] = rows[s][act[j]]
				}
			}
		}
		if err := r.structure.Install(prev, val, forward); err != nil {
			return err
		}
		derived := true
		for s := 0; derived && s < n; s++ {
			r.structure.Row(s, r.row, r.fallback)
			derived = sameBits(r.row, rows[s])
		}
		if derived {
			return nil
		}
		clear(val)
	}
	return errors.New("core: restore qtable: no retrain over the snapshot's samples leaves its rows")
}

// sameBits reports whether x and y hold the same values, bit for bit.
func sameBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
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
// to it. w is the calling record's scratch.
func (r *region) join(ord uint64, cfg config.Config, w *regionScratch) int32 {
	k, held := slices.BinarySearch(r.ords, ord)
	if held {
		return r.ordIdx[k]
	}
	idx := int32(len(r.rewards))
	r.ords = slices.Insert(r.ords, k, ord)
	r.ordIdx = slices.Insert(r.ordIdx, k, idx)
	prior := 0.0
	if r.predict != nil {
		prior = r.sla - r.predict(cfg)
	}
	r.rewards = append(r.rewards, prior)
	if r.seedKey != nil {
		r.keys = append(r.keys, r.seedKey(cfg))
	}
	w.next = r.space.Transitions(w.next[:0], []uint64{ord}, r.index)
	w.next[0] = idx // Transitions numbers Keep by position in its argument
	r.structure.Append(w.next)
	for a, to := range w.next[1:] {
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
	w := lent.Borrow()
	defer lent.GiveBack(w)
	found := slices.Grow(w.found[:0], (n+63)/64)[:(n+63)/64]
	w.found = found
	clear(found)
	r.order = r.order[:0]
	for _, s := range r.sampleIdx {
		next, _ := st.Moves(int(s))
		for _, to := range next {
			if found[to/64]&(1<<(to%64)) == 0 {
				found[to/64] |= 1 << (to % 64)
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
	for k, s := range r.sampleIdx {
		r.rewards[s] = r.sla - r.rt[k]
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
