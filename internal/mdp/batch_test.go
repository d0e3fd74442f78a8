package mdp

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"github.com/rac-project/rac/internal/sim"
)

// stringModel is the string-keyed view of a deterministic MDP that the
// reference trainer walks: the same lattice a Model describes by index,
// addressed by state key.
type stringModel interface {
	States() []string
	Actions() int
	// Next returns the state reached by taking action from state, and whether
	// the action is feasible there.
	Next(state string, action int) (string, bool)
	// Reward returns the immediate reward received on entering state.
	Reward(state string) float64
}

// referenceBatchTrain is Algorithm 1 driven through a Learner over the
// string-keyed table — the loop Train replaced, kept as its oracle: every
// ε draw, greedy scan and SARSA update goes through SelectAction and
// UpdateSARSA, one map lookup at a time. Train must reproduce its table byte
// for byte.
func referenceBatchTrain(table *QTable, model stringModel, cfg BatchConfig, rng *sim.RNG) (BatchResult, error) {
	if cfg.StepsPerState < 1 {
		cfg.StepsPerState = 1
	}
	if cfg.MaxSweeps < 1 {
		cfg.MaxSweeps = 1
	}
	learner, err := NewLearner(table, cfg.Params, rng)
	if err != nil {
		return BatchResult{}, err
	}
	states := model.States()
	feasible := make(map[string][]int, len(states))
	for _, s := range states {
		acts := make([]int, 0, model.Actions())
		for a := 0; a < model.Actions(); a++ {
			if _, ok := model.Next(s, a); ok {
				acts = append(acts, a)
			}
		}
		if len(acts) == 0 {
			return BatchResult{}, fmt.Errorf("state %q has no feasible actions", s)
		}
		feasible[s] = acts
	}

	var res BatchResult
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		var maxErr float64
		for _, start := range states {
			state := start
			action := learner.SelectAction(state, feasible[state])
			for step := 0; step < cfg.StepsPerState; step++ {
				next, ok := model.Next(state, action)
				if !ok {
					break
				}
				reward := model.Reward(next)
				nextAction := learner.SelectAction(next, feasible[next])
				if err := learner.UpdateSARSA(state, action, reward, next, nextAction); err > maxErr {
					maxErr = err
				}
				state, action = next, nextAction
			}
		}
		res.Sweeps = sweep + 1
		res.FinalErr = maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// indexedChain gives chainModel the dense-index transitions of a Model; the
// embedded string methods are what the reference trainer walks.
type indexedChain struct {
	chainModel
}

func (c indexedChain) NextIndex(s, action int) int {
	switch action {
	case 0:
		return s
	case 1:
		if s+1 >= c.n {
			return -1
		}
		return s + 1
	case 2:
		if s-1 < 0 {
			return -1
		}
		return s - 1
	}
	return -1
}

func (c indexedChain) RewardIndex(s int) float64 {
	d := s - c.goal
	if d < 0 {
		d = -d
	}
	return -float64(d)
}

// gridModel is a w×h lattice keyed "x,y" with five actions — keep, x±1, y±1 —
// infeasible where they would leave the grid, so corner, edge and interior
// states have three, four and five feasible actions. The reward peaks at the
// goal cell. It answers by key and by index (y*w + x).
type gridModel struct {
	w, h, goalX, goalY int
}

func (g gridModel) key(s int) string { return strconv.Itoa(s%g.w) + "," + strconv.Itoa(s/g.w) }

func (g gridModel) States() []string {
	out := make([]string, g.w*g.h)
	for s := range out {
		out[s] = g.key(s)
	}
	return out
}

func (g gridModel) Actions() int { return 5 }

func (g gridModel) NextIndex(s, action int) int {
	x, y := s%g.w, s/g.w
	switch action {
	case 0:
	case 1:
		x++
	case 2:
		x--
	case 3:
		y++
	case 4:
		y--
	default:
		return -1
	}
	if x < 0 || x >= g.w || y < 0 || y >= g.h {
		return -1
	}
	return y*g.w + x
}

func (g gridModel) RewardIndex(s int) float64 {
	dx, dy := s%g.w-g.goalX, s/g.w-g.goalY
	return -float64(dx*dx + dy*dy)
}

func (g gridModel) index(state string) (int, bool) {
	var x, y int
	if n, err := fmt.Sscanf(state, "%d,%d", &x, &y); n != 2 || err != nil {
		return 0, false
	}
	return y*g.w + x, x >= 0 && x < g.w && y >= 0 && y < g.h
}

func (g gridModel) Next(state string, action int) (string, bool) {
	s, ok := g.index(state)
	if !ok {
		return state, false
	}
	next := g.NextIndex(s, action)
	if next < 0 {
		return state, false
	}
	return g.key(next), true
}

func (g gridModel) Reward(state string) float64 {
	s, _ := g.index(state)
	return g.RewardIndex(s)
}

func qtableBytes(t *testing.T, q *QTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchTrainIndexedMatchesGeneric pins Train's contract: training on the
// dense arrays produces a Q-table byte-identical to the one the string-keyed
// reference loop produces, for the same seed — including under exploration,
// convergence cutoffs, seeded initial rows, a lattice whose states differ in
// feasible-action count, and rows served copy-on-write from a shared store.
func TestBatchTrainIndexedMatchesGeneric(t *testing.T) {
	type model interface {
		Model
		stringModel
	}
	chain := indexedChain{chainModel{n: 9, goal: 6}}
	grid := gridModel{w: 5, h: 4, goalX: 3, goalY: 1}
	chainSeeder := func(state string) []float64 {
		i, err := strconv.Atoi(state)
		if err != nil {
			return nil
		}
		return []float64{float64(i) * 0.25, -0.5, float64(i%3) - 1}
	}
	// The grid seeder declines one state, which must then read as the table's
	// constant initial value on both paths.
	gridSeeder := func(state string) []float64 {
		s, ok := grid.index(state)
		if !ok || s == 7 {
			return nil
		}
		return []float64{float64(s) * 0.125, -0.5, float64(s%3) - 1, 0.75, float64(s%4) * -0.25}
	}
	converging := func() BatchConfig {
		cfg := DefaultBatchConfig()
		cfg.Params.Epsilon = 0
		cfg.MaxSweeps = 5000
		cfg.Theta = 0.001
		return cfg
	}
	plain := func(m model) *QTable { return NewQTable(m.Actions(), 0.1) }
	seeded := func(seeder Seeder) func(model) *QTable {
		return func(m model) *QTable {
			q := plain(m)
			q.SetShared(NewSharedRows(m.Actions(), seeder))
			return q
		}
	}
	// One store for every table of the case: trained rows must land in each
	// table's private delta and leave the shared rows pristine.
	shared := NewSharedRows(grid.Actions(), gridSeeder)
	cases := []struct {
		name  string
		model model
		cfg   func() BatchConfig
		table func(model) *QTable
	}{
		{"default", chain, DefaultBatchConfig, plain},
		{"seeded-rows", chain, DefaultBatchConfig, seeded(chainSeeder)},
		{"converging", chain, converging, plain},
		{"grid-infeasible-edges", grid, DefaultBatchConfig, plain},
		{"shared-rows-cow", grid, DefaultBatchConfig, func(m model) *QTable {
			q := plain(m)
			q.SetShared(shared)
			return q
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				qFast := tc.table(tc.model)
				resFast, err := BatchTrain(qFast, tc.model, tc.cfg(), sim.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				qSlow := tc.table(tc.model)
				resSlow, err := referenceBatchTrain(qSlow, tc.model, tc.cfg(), sim.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				if resFast != resSlow {
					t.Fatalf("seed %d: results diverge: fast %+v, slow %+v", seed, resFast, resSlow)
				}
				fast, slow := qtableBytes(t, qFast), qtableBytes(t, qSlow)
				if !bytes.Equal(fast, slow) {
					t.Fatalf("seed %d: Q-tables diverge between dense and reference training", seed)
				}
				if qFast.Len() != len(tc.model.States()) {
					t.Fatalf("seed %d: %d rows materialized, want every one of %d states",
						seed, qFast.Len(), len(tc.model.States()))
				}
			}
		})
	}
	for s, state := range grid.States() {
		want := gridSeeder(state)
		if got := shared.row(state); !slices.Equal(got, want) {
			t.Fatalf("training wrote through shared row %d: %v, want %v", s, got, want)
		}
	}
}

// badIndexModel claims more states than NextIndex stays within.
type badIndexModel struct {
	indexedChain
}

func (badIndexModel) NextIndex(s, action int) int { return 99 }

func TestBatchTrainIndexedRejectsEscapingIndex(t *testing.T) {
	model := badIndexModel{indexedChain{chainModel{n: 3, goal: 1}}}
	if _, err := BatchTrain(NewQTable(3, 0), model, DefaultBatchConfig(), sim.NewRNG(1)); err == nil {
		t.Fatal("out-of-range NextIndex accepted")
	}
}

// deadEndIndexed has no feasible actions anywhere.
type deadEndIndexed struct{}

func (deadEndIndexed) States() []string        { return []string{"dead"} }
func (deadEndIndexed) Actions() int            { return 1 }
func (deadEndIndexed) NextIndex(int, int) int  { return -1 }
func (deadEndIndexed) RewardIndex(int) float64 { return 0 }

func TestBatchTrainIndexedRejectsDeadEnds(t *testing.T) {
	if _, err := BatchTrain(NewQTable(1, 0), deadEndIndexed{}, DefaultBatchConfig(), sim.NewRNG(1)); err == nil {
		t.Fatal("dead-end indexed model accepted")
	}
}

// TestStructureFromTransitions: a caller-supplied table yields the structure
// NewStructure derives through NextIndex, Train over it lands on the bytes
// BatchTrain produces from the model, and it is held to the same closure
// checks.
func TestStructureFromTransitions(t *testing.T) {
	chain := indexedChain{chainModel{n: 9, goal: 6}}
	states, actions := chain.States(), chain.Actions()
	trans := make([]int32, len(states)*actions)
	for s := range states {
		for a := 0; a < actions; a++ {
			trans[s*actions+a] = int32(chain.NextIndex(s, a))
		}
	}
	st, err := NewStructureFromTransitions(states, actions, trans)
	if err != nil {
		t.Fatal(err)
	}
	for s := range states {
		for a := 0; a < actions; a++ {
			if got, want := st.Next(s, a), chain.NextIndex(s, a); got != want {
				t.Fatalf("Next(%d, %d) = %d, want %d", s, a, got, want)
			}
		}
	}

	derived, direct := NewQTable(actions, 0), NewQTable(actions, 0)
	if _, err := BatchTrain(derived, chain, DefaultBatchConfig(), sim.NewRNG(42)); err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, len(states))
	for s := range rewards {
		rewards[s] = chain.RewardIndex(s)
	}
	if _, err := Train(direct, st, rewards, DefaultBatchConfig(), sim.NewRNG(42)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(qtableBytes(t, derived), qtableBytes(t, direct)) {
		t.Fatal("training over a caller-built structure differs from the derived one")
	}

	if _, err := NewStructureFromTransitions(nil, actions, nil); err == nil {
		t.Error("empty state set accepted")
	}
	if _, err := NewStructureFromTransitions(states, actions, trans[:len(trans)-1]); err == nil {
		t.Error("short transition table accepted")
	}
	escaping := append([]int32(nil), trans...)
	escaping[4] = int32(len(states))
	if _, err := NewStructureFromTransitions(states, actions, escaping); err == nil {
		t.Error("transition outside the state set accepted")
	}
	dead := append([]int32(nil), trans...)
	for a := 0; a < actions; a++ {
		dead[2*actions+a] = -1
	}
	if _, err := NewStructureFromTransitions(states, actions, dead); err == nil {
		t.Error("state with no feasible action accepted")
	}
}

// TestTrainValidation: Train checks its own arguments — nothing upstream of
// it (no Learner, no model adapter) does so on its behalf.
func TestTrainValidation(t *testing.T) {
	chain := indexedChain{chainModel{n: 4, goal: 2}}
	st, err := NewStructure(chain)
	if err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, len(st.States()))
	good := DefaultBatchConfig()
	bad := func(mutate func(*Params)) BatchConfig {
		cfg := DefaultBatchConfig()
		mutate(&cfg.Params)
		return cfg
	}
	cases := []struct {
		name    string
		table   *QTable
		st      *Structure
		rewards []float64
		cfg     BatchConfig
		rng     *sim.RNG
	}{
		{"nil table", nil, st, rewards, good, sim.NewRNG(1)},
		{"nil structure", NewQTable(3, 0), nil, rewards, good, sim.NewRNG(1)},
		{"nil rng", NewQTable(3, 0), st, rewards, good, nil},
		{"short rewards", NewQTable(3, 0), st, rewards[:len(rewards)-1], good, sim.NewRNG(1)},
		{"long rewards", NewQTable(3, 0), st, append(rewards, 0), good, sim.NewRNG(1)},
		{"action-count mismatch", NewQTable(2, 0), st, rewards, good, sim.NewRNG(1)},
		{"zero alpha", NewQTable(3, 0), st, rewards, bad(func(p *Params) { p.Alpha = 0 }), sim.NewRNG(1)},
		{"gamma one", NewQTable(3, 0), st, rewards, bad(func(p *Params) { p.Gamma = 1 }), sim.NewRNG(1)},
		{"negative epsilon", NewQTable(3, 0), st, rewards, bad(func(p *Params) { p.Epsilon = -0.1 }), sim.NewRNG(1)},
	}
	for _, tc := range cases {
		if _, err := Train(tc.table, tc.st, tc.rewards, tc.cfg, tc.rng); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if tc.table != nil && tc.table.Len() != 0 {
			t.Errorf("%s: rejected call materialized %d rows", tc.name, tc.table.Len())
		}
	}
	// Non-positive schedule lengths are clamped to one, not rejected.
	q := NewQTable(3, 0)
	res, err := Train(q, st, rewards, BatchConfig{Params: DefaultOffline()}, sim.NewRNG(1))
	if err != nil || res.Sweeps != 1 {
		t.Fatalf("zero schedule: %+v, %v; want one sweep", res, err)
	}
}
