package mdp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/regression"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
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

// referenceBatchTrain is Algorithm 1 as the paper states it, driven through a
// Learner over the string-keyed table: sweeps over every state, each starting
// an ε-greedy trajectory of StepsPerState SARSA updates, until a sweep's
// largest TD error drops below Theta. It is the sampled sweep Solve replaced,
// kept as Solve's oracle: it estimates by sampling the values Solve computes.
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

// solveReference is Solve as it was before it worked in place: Gauss–Seidel
// on a dense copy of the served rows, written back into the table at the end.
// It is the oracle TestSolveMatchesReference holds Solve to, kept verbatim.
func solveReference(table *QTable, st *Structure, rewards []float64, cfg BatchConfig) (BatchResult, error) {
	switch {
	case table == nil:
		return BatchResult{}, errors.New("mdp: nil table")
	case st == nil:
		return BatchResult{}, errors.New("mdp: nil structure")
	case table.Actions() != st.actions:
		return BatchResult{}, fmt.Errorf("mdp: table has %d actions, model %d", table.Actions(), st.actions)
	case len(rewards) != len(st.states):
		return BatchResult{}, fmt.Errorf("mdp: %d rewards for %d states", len(rewards), len(st.states))
	}
	if err := cfg.Params.Validate(); err != nil {
		return BatchResult{}, err
	}
	if cfg.MaxSweeps < 1 {
		cfg.MaxSweeps = 1
	}
	states, actions, n := st.states, st.actions, len(st.states)
	trans := transOf(&st.successors)
	off, feas := feasibleLists(st)

	q := make([]float64, n*actions)
	for s, state := range states {
		table.snapshotRow(state, q[s*actions:(s+1)*actions])
	}
	gamma, eps := cfg.Params.Gamma, cfg.Params.Epsilon
	// backup[s] is what entering s is worth beyond its reward: the expected
	// value of the ε-greedy choice over s's row.
	backup := make([]float64, n)
	expected := func(s int) float64 {
		allowed := feas[off[s]:off[s+1]]
		row := q[s*actions : (s+1)*actions]
		best, sum := row[allowed[0]], 0.0
		for _, a := range allowed {
			v := row[a]
			sum += v
			if v > best {
				best = v
			}
		}
		return (1-eps)*best + eps*sum/float64(len(allowed))
	}
	for s := range backup {
		backup[s] = expected(s)
	}

	var res BatchResult
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		var maxErr float64
		for i := 0; i < n; i++ {
			s := i
			if sweep%2 == 1 {
				s = n - 1 - i
			}
			row := q[s*actions : (s+1)*actions]
			for _, a := range feas[off[s]:off[s+1]] {
				next := trans[s*actions+int(a)]
				target := rewards[next] + gamma*backup[next]
				if d := math.Abs(target - row[a]); d > maxErr {
					maxErr = d
				}
				row[a] = target
			}
			backup[s] = expected(s)
		}
		res.Sweeps = sweep + 1
		res.FinalErr = maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}

	for s, state := range states {
		table.setRow(state, q[s*actions:(s+1)*actions])
	}
	return res, nil
}

// feasibleLists flattens st's feasible actions the way Structure held them
// before Solve walked the transition table: feas[off[s]:off[s+1]] lists s's
// feasible actions ascending.
func feasibleLists(st *Structure) (off, feas []int32) {
	off = make([]int32, 0, st.Len()+1)
	for s := 0; s < st.Len(); s++ {
		off = append(off, int32(len(feas)))
		for a := 0; a < st.actions; a++ {
			if st.Next(s, a) >= 0 {
				feas = append(feas, int32(a))
			}
		}
	}
	return append(off, int32(len(feas))), feas
}

// snapshotRow copies the row the table serves for state into dst without
// materializing it — solveReference's read side.
func (q *QTable) snapshotRow(state string, dst []float64) {
	row, _ := q.served(state)
	q.fill(dst, row)
}

// setRow assigns state's row from values — solveReference's write side.
func (q *QTable) setRow(state string, values []float64) {
	if row, ok := q.rows[state]; ok {
		copy(row, values)
		return
	}
	q.materialize(state, values)
}

// solveTable is Solve over the table's own rows, bound the way BatchTrain
// binds them: copied into a slab, solved, and copied back.
func solveTable(q *QTable, st *Structure, rewards []float64, cfg BatchConfig) (BatchResult, error) {
	rows := q.OwnRows(st.States())
	slab := make([]float64, len(rows)*st.actions)
	for s, row := range rows {
		copy(slab[s*st.actions:], row)
	}
	res, err := Solve(slab, st, rewards, nil, cfg)
	for s, row := range rows {
		copy(row, slab[s*st.actions:])
	}
	return res, err
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

// greedyFeasible returns the best feasible action of state s in q and its
// value, ties toward the lowest action index.
func greedyFeasible(q *QTable, st *Structure, s int) (int, float64) {
	best, bestV := -1, 0.0
	for a := 0; a < st.Actions(); a++ {
		if st.Next(s, a) < 0 {
			continue
		}
		if v := q.Get(st.States()[s], a); best < 0 || v > bestV {
			best, bestV = a, v
		}
	}
	return best, bestV
}

// bellmanResidual is the largest violation, over every feasible (state,
// action), of the equation Solve claims to satisfy:
//
//	Q(s,a) = r(s′) + γ·[(1−ε)·max Q(s′,·) + ε·mean Q(s′,·)]
//
// evaluated directly on the table, independently of Solve's bookkeeping.
func bellmanResidual(q *QTable, st *Structure, rewards []float64, p Params) float64 {
	var worst float64
	for s, state := range st.States() {
		for a := 0; a < st.Actions(); a++ {
			next := st.Next(s, a)
			if next < 0 {
				continue
			}
			_, best := greedyFeasible(q, st, next)
			var sum float64
			var k int
			for b := 0; b < st.Actions(); b++ {
				if st.Next(next, b) >= 0 {
					sum += q.Get(st.States()[next], b)
					k++
				}
			}
			target := rewards[next] + p.Gamma*((1-p.Epsilon)*best+p.Epsilon*sum/float64(k))
			worst = math.Max(worst, math.Abs(target-q.Get(state, a)))
		}
	}
	return worst
}

// TestBatchTrainIndexedMatchesGeneric holds the solver to its oracle: on the
// same MDP and starting rows, the values the string-keyed SARSA reference loop
// samples (averaged over five exploration seeds) agree with Solve's to 15 %,
// every greedy choice a reference run settles on is one Solve rates optimal
// (to within 0.5), and neither writes an infeasible entry — both leave it at
// its seeded value. Cases cover exploration, ε = 0 (where the reference itself
// converges), seeded initial rows, a lattice whose states differ in feasible-
// action count, and rows served copy-on-write from a shared store, which the
// solve must leave pristine.
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
	// The reference needs many sweeps to settle near the values it samples.
	exploring := func() BatchConfig {
		cfg := DefaultBatchConfig()
		cfg.MaxSweeps = 400
		return cfg
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
		{"default", chain, exploring, plain},
		{"seeded-rows", chain, exploring, seeded(chainSeeder)},
		{"converging", chain, converging, plain},
		{"grid-infeasible-edges", grid, exploring, plain},
		{"shared-rows-cow", grid, exploring, func(m model) *QTable {
			q := plain(m)
			q.SetShared(shared)
			return q
		}},
	}
	const seeds = 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStructure(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			states := st.States()
			solved := tc.table(tc.model)
			res, err := BatchTrain(solved, tc.model, tc.cfg(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || solved.Len() != len(states) {
				t.Fatalf("solve %+v materialized %d of %d rows", res, solved.Len(), len(states))
			}
			meanV := make([]float64, len(states))
			for seed := uint64(1); seed <= seeds; seed++ {
				sampled := tc.table(tc.model)
				if _, err := referenceBatchTrain(sampled, tc.model, tc.cfg(), sim.NewRNG(seed)); err != nil {
					t.Fatal(err)
				}
				for s, state := range states {
					a, v := greedyFeasible(sampled, st, s)
					meanV[s] += v / seeds
					if _, best := greedyFeasible(solved, st, s); solved.Get(state, a) < best-0.5 {
						t.Errorf("seed %d state %s: the reference settles on action %d, worth %.3f to the solver against %.3f",
							seed, state, a, solved.Get(state, a), best)
					}
					for b := 0; b < st.Actions(); b++ {
						if st.Next(s, b) < 0 && sampled.Get(state, b) != solved.Get(state, b) {
							t.Errorf("state %s: infeasible action %d reads %v solved, %v sampled",
								state, b, solved.Get(state, b), sampled.Get(state, b))
						}
					}
				}
			}
			for s, state := range states {
				_, v := greedyFeasible(solved, st, s)
				if d := math.Abs(v - meanV[s]); d > 0.15*math.Max(1, math.Abs(v)) {
					t.Errorf("state %s: solved value %.3f, reference samples %.3f on average", state, v, meanV[s])
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
	if _, err := BatchTrain(NewQTable(3, 0), model, DefaultBatchConfig(), nil); err == nil {
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
	if _, err := BatchTrain(NewQTable(1, 0), deadEndIndexed{}, DefaultBatchConfig(), nil); err == nil {
		t.Fatal("dead-end indexed model accepted")
	}
}

// TestStructureFromTransitions: a caller-supplied table yields the structure
// NewStructure derives through NextIndex, Solve over it lands on the bytes
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
	if _, err := BatchTrain(derived, chain, DefaultBatchConfig(), nil); err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, len(states))
	for s := range rewards {
		rewards[s] = chain.RewardIndex(s)
	}
	if _, err := solveTable(direct, st, rewards, DefaultBatchConfig()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(qtableBytes(t, derived), qtableBytes(t, direct)) {
		t.Fatal("training over a caller-built structure differs from the derived one")
	}

	if _, err := NewStructureFromTransitions(nil, actions, nil); err == nil {
		t.Error("empty state set accepted")
	}
	if _, err := NewStructureFromTransitions(states, 0, nil); err == nil {
		t.Error("zero actions accepted")
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

// TestSolveValidation: Solve checks its own arguments — nothing upstream of
// it (no Learner, no model adapter) does so on its behalf.
func TestSolveValidation(t *testing.T) {
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
	q := make([]float64, len(st.States())*3)
	cases := []struct {
		name    string
		q       []float64
		st      *Structure
		rewards []float64
		cfg     BatchConfig
	}{
		{"nil structure", q, nil, rewards, good},
		{"short slab", q[:len(q)-3], st, rewards, good},
		{"ragged slab", q[:len(q)-1], st, rewards, good},
		{"short rewards", q, st, rewards[:len(rewards)-1], good},
		{"long rewards", q, st, append(rewards, 0), good},
		{"action-count mismatch", make([]float64, len(st.States())*2), st, rewards, good},
		{"zero alpha", q, st, rewards, bad(func(p *Params) { p.Alpha = 0 })},
		{"gamma one", q, st, rewards, bad(func(p *Params) { p.Gamma = 1 })},
		{"negative epsilon", q, st, rewards, bad(func(p *Params) { p.Epsilon = -0.1 })},
	}
	for _, tc := range cases {
		if _, err := Solve(tc.q, tc.st, tc.rewards, nil, tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if slices.ContainsFunc(q, func(v float64) bool { return v != 0 }) {
		t.Fatalf("a rejected call wrote the slab: %v", q)
	}
	// BatchTrain checks the table it binds before materializing any row.
	for name, q := range map[string]*QTable{"nil table": nil, "action-count mismatch": NewQTable(2, 0)} {
		if _, err := BatchTrain(q, chain, good, nil); err == nil {
			t.Errorf("BatchTrain: %s accepted", name)
		}
		if q != nil && q.Len() != 0 {
			t.Errorf("BatchTrain: %s: rejected call materialized %d rows", name, q.Len())
		}
	}
	// A growing structure checks its own solve's arguments, and solves only
	// once compiled.
	g, held := grownWhole(t, st, []int32{3, 1, 0, 2}), func(int, int) float64 { return 0 }
	for name, solve := range map[string]func() error{
		"short rewards": func() error { _, err := g.Solve(rewards[:len(rewards)-1], held, good); return err },
		"zero alpha": func() error {
			_, err := g.Solve(rewards, held, bad(func(p *Params) { p.Alpha = 0 }))
			return err
		},
		"no Compile since Append": func() error {
			g := grownWhole(t, st, []int32{3, 1, 0, 2})
			g.Append([]int32{0, -1, -1})
			_, err := g.Solve(append(rewards, 0), held, good)
			return err
		},
	} {
		if solve() == nil {
			t.Errorf("GrowingStructure.Solve: %s accepted", name)
		}
	}
	if len(g.last.Val) != 0 {
		t.Error("a rejected GrowingStructure.Solve set values")
	}
	// A whole structure solves without a slab.
	if _, err := Solve(nil, st, rewards, nil, good); err != nil {
		t.Fatalf("no slab over a whole structure: %v", err)
	}
	// A non-positive sweep bound is clamped to one, not rejected.
	res, err := Solve(q, st, rewards, nil, BatchConfig{Params: DefaultOffline()})
	if err != nil || res.Sweeps != 1 {
		t.Fatalf("zero schedule: %+v, %v; want one sweep", res, err)
	}
}

// TestSolveBellmanResidual: a converged solve satisfies its equation to Theta
// when the residual is evaluated on the table it wrote, from any starting
// rows, and the result does not depend on them beyond the threshold's reach.
func TestSolveBellmanResidual(t *testing.T) {
	grid := gridModel{w: 7, h: 5, goalX: 2, goalY: 3}
	st, err := NewStructure(grid)
	if err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, len(st.States()))
	for s := range rewards {
		rewards[s] = grid.RewardIndex(s)
	}
	cfg := DefaultBatchConfig()
	cfg.MaxSweeps = 1000
	var first *QTable
	for _, initial := range []float64{0, -50, 30} {
		q := NewQTable(grid.Actions(), initial)
		res, err := solveTable(q, st, rewards, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.FinalErr >= cfg.Theta {
			t.Fatalf("initial %v: %+v", initial, res)
		}
		if r := bellmanResidual(q, st, rewards, cfg.Params); r > cfg.Theta {
			t.Errorf("initial %v: Bellman residual %.3g after %d sweeps, threshold %g", initial, r, res.Sweeps, cfg.Theta)
		}
		if first == nil {
			first = q
			continue
		}
		// Both are within Theta/(1−γ) of the one fixed point.
		for s, state := range st.States() {
			for a := 0; a < st.Actions(); a++ {
				if st.Next(s, a) >= 0 && math.Abs(q.Get(state, a)-first.Get(state, a)) > 2*cfg.Theta/(1-cfg.Params.Gamma) {
					t.Fatalf("initial %v: Q(%s, %d) = %v, from zero %v", initial, state, a, q.Get(state, a), first.Get(state, a))
				}
			}
		}
	}
}

// table2Lattice builds the MDP core.LearnPolicyStream solves offline for a
// Table-2 context at full fidelity — Algorithm 2 steps 1–3 on the analytic
// backend: the states are the points of the default space's group lattice,
// and the reward of entering one is the 2 s SLA minus the log-space quadratic
// fitted to the four-level coarse sample, floored at a quarter of the fastest
// sample.
func table2Lattice(tb testing.TB, ctx system.Context) (*Structure, []float64) {
	tb.Helper()
	space := config.Default()
	groups, err := space.Grouping()
	if err != nil {
		tb.Fatal(err)
	}
	cfgs, xs, err := groups.Coarse(4)
	if err != nil {
		tb.Fatal(err)
	}
	ys := make([]float64, len(cfgs))
	if err := system.AnalyticSampler(space, ctx, nil)(cfgs, nil, ys); err != nil {
		tb.Fatal(err)
	}
	logYs := make([]float64, len(ys))
	for i, y := range ys {
		logYs[i] = math.Log(math.Max(y, 1e-3))
	}
	quad, err := regression.FitQuadratic(xs, logYs)
	if err != nil {
		tb.Fatal(err)
	}
	floor := slices.Min(ys) * 0.25

	lattice := groups.Space()
	keys := make([]string, lattice.States())
	ords := make([]uint64, len(keys))
	rewards := make([]float64, len(keys))
	point := make(config.Config, lattice.Len())
	vec := make([]float64, lattice.Len())
	for ord := range keys {
		ords[ord] = uint64(ord)
		keys[ord] = lattice.At(uint64(ord), point).Key()
		for gi, v := range point {
			vec[gi] = float64(v)
		}
		rewards[ord] = 2 - math.Max(math.Exp(quad.Eval(vec)), floor)
	}
	trans := lattice.Transitions(nil, ords, func(ord uint64) int32 { return int32(ord) })
	st, err := NewStructureFromTransitions(keys, 2*lattice.Len()+1, trans)
	if err != nil {
		tb.Fatal(err)
	}
	return st, rewards
}

// offlineSchedule is core.DefaultOfflineBatch: the paper's offline parameters,
// a 400-sweep bound and a 0.005 threshold.
func offlineSchedule() BatchConfig {
	cfg := DefaultBatchConfig()
	cfg.MaxSweeps, cfg.Theta = 400, 0.005
	return cfg
}

// TestSolveTable2GroupLattices: on the offline MDP of every Table-2 context,
// the solve converges within twenty sweeps, and the ε-greedy Bellman
// residual, evaluated outside Solve, is within the threshold.
func TestSolveTable2GroupLattices(t *testing.T) {
	cfg := offlineSchedule()
	for _, ctx := range system.Table2() {
		st, rewards := table2Lattice(t, ctx)
		q := NewQTable(st.Actions(), 0)
		res, err := solveTable(q, st, rewards, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Sweeps > 20 {
			t.Errorf("%s: %+v over %d states; want convergence within 20 sweeps", ctx.Name, res, len(st.States()))
		}
		if r := bellmanResidual(q, st, rewards, cfg.Params); r > cfg.Theta {
			t.Errorf("%s: Bellman residual %.3g, threshold %g", ctx.Name, r, cfg.Theta)
		}
	}
}

// structureModel is the string-keyed view of a Structure plus rewards, for
// the reference loop.
type structureModel struct {
	st      *Structure
	rewards []float64
	index   map[string]int
}

func newStructureModel(st *Structure, rewards []float64) structureModel {
	index := make(map[string]int, len(st.States()))
	for s, state := range st.States() {
		index[state] = s
	}
	return structureModel{st: st, rewards: rewards, index: index}
}

func (m structureModel) States() []string { return m.st.States() }
func (m structureModel) Actions() int     { return m.st.Actions() }
func (m structureModel) Next(state string, action int) (string, bool) {
	next := m.st.Next(m.index[state], action)
	if next < 0 {
		return state, false
	}
	return m.st.States()[next], true
}
func (m structureModel) Reward(state string) float64 { return m.rewards[m.index[state]] }

// BenchmarkSolveGroupLattice times one offline training pass over context-1's
// group lattice at the offline schedule: the value sweep with no slab, as the
// offline trainer runs it, the slab sweep it replaced (solveSlab, from a
// zeroed slab), and the sampled SARSA sweep before that (the string-keyed
// reference loop, which runs to the 400-sweep bound).
func BenchmarkSolveGroupLattice(b *testing.B) {
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		b.Fatal(err)
	}
	st, rewards := table2Lattice(b, ctx)
	cfg := offlineSchedule()
	prev, val := make([]float64, st.Len()), make([]float64, st.Len())
	var v Values
	b.Run("solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(nil, st, rewards, &v, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("slab", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solveSlab(make([]float64, st.Len()*st.Actions()), st, rewards, prev, val, cfg)
		}
	})
	b.Run("sarsa-reference", func(b *testing.B) {
		model := newStructureModel(st, rewards)
		for i := 0; i < b.N; i++ {
			if _, err := referenceBatchTrain(NewQTable(st.Actions(), 0), model, cfg, sim.NewRNG(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sameTable reports the first difference between two tables — materialized
// states, initial value, any entry's bits — or "" when they are identical.
func sameTable(got, want *QTable) string {
	if got.actions != want.actions || math.Float64bits(got.initial) != math.Float64bits(want.initial) {
		return fmt.Sprintf("tables differ in shape: %d actions initial %v, want %d actions initial %v",
			got.actions, got.initial, want.actions, want.initial)
	}
	if g, w := got.States(), want.States(); !slices.Equal(g, w) {
		return fmt.Sprintf("materialized states %v, want %v", g, w)
	}
	for state, w := range want.rows {
		for a, v := range got.rows[state] {
			if math.Float64bits(v) != math.Float64bits(w[a]) {
				return fmt.Sprintf("Q(%s, %d) = %v, want %v", state, a, v, w[a])
			}
		}
	}
	return ""
}

// checkSolveMatchesReference runs Solve and solveReference on two tables
// build returns and requires the same BatchResult and bit-identical tables,
// infeasible entries included. Solve runs first; when build hands both tables
// one shared store, a write through its seeded rows would show as a mismatch.
// Solve must also materialize exactly the structure's states beside the ones
// the table already held.
func checkSolveMatchesReference(t *testing.T, st *Structure, rewards []float64, cfg BatchConfig, build func() (*QTable, *QTable)) {
	t.Helper()
	got, want := build()
	held := got.States()
	gotRes, err := solveTable(got, st, rewards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := solveReference(want, st, rewards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes != wantRes {
		t.Fatalf("Solve %+v, reference %+v", gotRes, wantRes)
	}
	if diff := sameTable(got, want); diff != "" {
		t.Fatal(diff)
	}
	materialized := append(slices.Clone(held), st.States()...)
	slices.Sort(materialized)
	if states := got.States(); !slices.Equal(states, slices.Compact(materialized)) {
		t.Fatalf("Solve left %d materialized rows, want the %d held plus the structure's %d states",
			len(states), len(held), len(st.States()))
	}
}

// TestSolveMatchesReference holds the in-place solve to solveReference, the
// dense-copy solve it replaced, bit for bit: on the offline MDP of every
// Table-2 context (from an empty table at the offline schedule, and from a
// shared seeded store over a partially materialized table, stopped before
// convergence), and on random structures — feasible-action counts from one to
// all, self-loops, seeded rows a store serves or declines, rows the table
// already owns, rows outside the structure, sweep bounds and thresholds on
// either side of convergence.
func TestSolveMatchesReference(t *testing.T) {
	seedRow := func(rng *sim.RNG, actions int) []float64 {
		row := make([]float64, actions)
		for a := range row {
			row[a] = rng.NormFloat64(0, 10)
		}
		return row
	}
	// partial returns a table builder over st: a shared store seeding from
	// seeded (nil: no store), one table pair sharing it, and every k-th state
	// plus one state outside the structure materialized beforehand.
	partial := func(st *Structure, initial float64, seeded Seeder, k int, seed uint64) func() (*QTable, *QTable) {
		return func() (*QTable, *QTable) {
			var store *SharedRows
			if seeded != nil {
				store = NewSharedRows(st.Actions(), seeded)
			}
			pair := [2]*QTable{}
			for i := range pair {
				rng := sim.NewRNG(seed)
				q := NewQTable(st.Actions(), initial)
				q.SetShared(store)
				for s := 0; k > 0 && s < len(st.States()); s += k {
					copy(q.Row(st.States()[s]), seedRow(rng, st.Actions()))
				}
				copy(q.Row("outside the structure"), seedRow(rng, st.Actions()))
				pair[i] = q
			}
			return pair[0], pair[1]
		}
	}

	for _, ctx := range system.Table2() {
		st, rewards := table2Lattice(t, ctx)
		t.Run(ctx.Name+"/empty", func(t *testing.T) {
			checkSolveMatchesReference(t, st, rewards, offlineSchedule(), func() (*QTable, *QTable) {
				return NewQTable(st.Actions(), 0), NewQTable(st.Actions(), 0)
			})
		})
		t.Run(ctx.Name+"/shared-partial", func(t *testing.T) {
			seeder := func(state string) []float64 {
				if len(state)%5 == 0 {
					return nil // declined: served at the initial value
				}
				return seedRow(sim.NewRNG(uint64(len(state))*31+uint64(state[0])), st.Actions())
			}
			cfg := offlineSchedule()
			cfg.MaxSweeps = 4
			checkSolveMatchesReference(t, st, rewards, cfg, partial(st, -3, seeder, 7, 11))
		})
	}

	rng := sim.NewRNG(29)
	for c := 0; c < 200; c++ {
		n, actions := 1+rng.Intn(40), 1+rng.Intn(7)
		states := make([]string, n)
		for s, p := range rng.Perm(n) {
			states[s] = "s" + strconv.Itoa(p)
		}
		trans := randomTransitions(rng, n, actions)
		st, err := NewStructureFromTransitions(states, actions, trans)
		if err != nil {
			t.Fatal(err)
		}
		rewards := make([]float64, n)
		for s := range rewards {
			rewards[s] = rng.NormFloat64(0, 5)
		}
		cfg := DefaultBatchConfig()
		cfg.Params.Gamma, cfg.Params.Epsilon = 0.99*rng.Float64(), rng.Float64()
		cfg.MaxSweeps, cfg.Theta = rng.Intn(40), math.Pow(10, -6*rng.Float64())
		var seeder Seeder
		if rng.Bool(0.5) {
			seed := rng.Uint64()
			seeder = func(state string) []float64 {
				r := sim.NewRNG(seed ^ uint64(len(state))<<8 ^ uint64(state[len(state)-1]))
				switch r.Intn(4) {
				case 0:
					return nil
				case 1:
					return make([]float64, actions+1) // wrong length: declined
				}
				return seedRow(r, actions)
			}
		}
		build := partial(st, rng.NormFloat64(0, 3), seeder, rng.Intn(4), rng.Uint64())
		order := rng.Perm(n)
		t.Run(fmt.Sprintf("random-%d", c), func(t *testing.T) {
			checkSolveMatchesReference(t, st, rewards, cfg, build)
			checkOrderedSolveMatchesReference(t, st, rewards, cfg, order, build)
		})
	}
}

// randomTransitions returns a random n-state transition table: each entry
// feasible with probability 0.6 and then uniform over the states, self-loops
// included, and every state with at least one feasible action.
func randomTransitions(rng *sim.RNG, n, actions int) []int32 {
	trans := make([]int32, n*actions)
	for s := 0; s < n; s++ {
		row := trans[s*actions : (s+1)*actions]
		for a := range row {
			row[a] = -1
			if rng.Bool(0.6) {
				row[a] = int32(rng.Intn(n))
			}
		}
		if !slices.ContainsFunc(row, func(next int32) bool { return next >= 0 }) {
			row[rng.Intn(actions)] = int32(rng.Intn(n))
		}
	}
	return trans
}

// permuted returns st relabelled so that index d is st's state order[d], and
// rewards to match: index order over the result is order over st.
func permuted(t *testing.T, st *Structure, rewards []float64, order []int32) (*Structure, []float64) {
	t.Helper()
	n, actions := len(st.states), st.actions
	pos := make([]int32, n)
	for d, s := range order {
		pos[s] = int32(d)
	}
	states, trans, perm := make([]string, n), make([]int32, n*actions), make([]float64, n)
	for d, s := range order {
		states[d], perm[d] = st.states[s], rewards[s]
		for a := 0; a < actions; a++ {
			if to := st.Next(int(s), a); to >= 0 {
				trans[d*actions+a] = pos[to]
			} else {
				trans[d*actions+a] = -1
			}
		}
	}
	out, err := NewStructureFromTransitions(states, actions, trans)
	if err != nil {
		t.Fatal(err)
	}
	return out, perm
}

// grownWhole returns st grown in place — every state appended in index order
// with its whole row — and compiled with sweep order order.
func grownWhole(t *testing.T, st *Structure, order []int32) *GrowingStructure {
	t.Helper()
	g := NewGrowingStructure(st.actions)
	trans := transOf(&st.successors)
	for s := range st.states {
		g.Append(trans[s*st.actions : (s+1)*st.actions])
	}
	if err := g.Compile(order); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkOrderedSolveMatchesReference holds the solve of st grown with sweep
// order order, from the rows of a table bound to st's keys, to
// solveReference over st permuted into that order: the same BatchResult and
// bit-identical tables once the grown structure's feasible entries are
// written back to the rows.
func checkOrderedSolveMatchesReference(t *testing.T, st *Structure, rewards []float64, cfg BatchConfig, perm []int,
	build func() (*QTable, *QTable)) {
	t.Helper()
	order := make([]int32, len(perm))
	for d, s := range perm {
		order[d] = int32(s)
	}
	got, want := build()
	g := grownWhole(t, st, order)
	rows := got.OwnRows(st.States())
	gotRes, err := g.Solve(rewards, func(s, a int) float64 { return rows[s][a] }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, row := range rows {
		for a := range row {
			if v, ok := g.Entry(s, a); ok {
				row[a] = v
			}
		}
	}
	pst, prewards := permuted(t, st, rewards, order)
	wantRes, err := solveReference(want, pst, prewards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes != wantRes {
		t.Fatalf("Solve in order %v: %+v, reference over the permuted structure %+v", order, gotRes, wantRes)
	}
	if diff := sameTable(got, want); diff != "" {
		t.Fatal(diff)
	}
}

// Next returns the index reached by taking action in state s, or a negative
// value when the action is infeasible there.
func (sc *successors) Next(s, action int) int {
	next, act := sc.Moves(s)
	if k := slices.Index(act, uint8(action)); k >= 0 {
		return int(next[k])
	}
	return -1
}

// Entry returns the value the last solve left in the entry for action a of
// state s, and false when no solve has set it: the action is infeasible
// there, or s or the state it leads to joined since the last solve.
func (g *GrowingStructure) Entry(s, a int) (float64, bool) {
	to := g.Next(s, a)
	if to < 0 {
		return 0, false
	}
	return g.last.entry(s, int32(to))
}

// transOf returns the transition table of the moves sc lists: entry
// s*actions+a the index action a of state s leads to, −1 when infeasible.
func transOf(sc *successors) []int32 {
	trans := make([]int32, sc.Len()*sc.actions)
	for s := range sc.Len() {
		for a := range sc.actions {
			trans[s*sc.actions+a] = int32(sc.Next(s, a))
		}
	}
	return trans
}

// TestGrowingStructureMatchesWhole: a structure grown in place — states
// appended in a random join order with the edges to states already held,
// edges from held states linked as their targets join, Compile at random
// points of the growth — equals NewStructureFromTransitions on the same table
// relabelled in join order, at every Compile and at the end, on 200 random
// tables. Compile rejects an order that is not a permutation of the states.
func TestGrowingStructureMatchesWhole(t *testing.T) {
	rng := sim.NewRNG(43)
	for c := 0; c < 200; c++ {
		n, actions := 1+rng.Intn(40), 1+rng.Intn(7)
		trans := randomTransitions(rng, n, actions)
		join := rng.Perm(n) // grown index g is state join[g]
		at := make([]int32, n)
		for s := range at {
			at[s] = -1
		}
		g := NewGrowingStructure(actions)
		next := make([]int32, actions)
		for k, s := range join {
			at[s] = int32(k)
			for a := range next {
				next[a] = -1
				if to := trans[s*actions+a]; to >= 0 {
					next[a] = at[to]
				}
			}
			if idx := g.Append(next); idx != int32(k) {
				t.Fatalf("case %d: Append returned %d for the %d-th state", c, idx, k)
			}
			for _, h := range join[:k] {
				for a := 0; a < actions; a++ {
					if trans[h*actions+a] == int32(s) {
						g.Link(int(at[h]), a, int32(k))
					}
				}
			}
			if k < n-1 && !rng.Bool(0.3) {
				continue
			}
			// The whole table restricted to the states joined so far, in join
			// order: what the grown structure must equal.
			m := k + 1
			states, part := make([]string, m), make([]int32, m*actions)
			for d, s := range join[:m] {
				states[d] = "s" + strconv.Itoa(s)
				for a := 0; a < actions; a++ {
					part[d*actions+a] = -1
					if to := trans[s*actions+a]; to >= 0 && at[to] >= 0 {
						part[d*actions+a] = at[to]
					}
				}
			}
			order := make([]int32, m)
			for d, p := range rng.Perm(m) {
				order[d] = int32(p)
			}
			want, wantErr := NewStructureFromTransitions(states, actions, part)
			gotErr := g.Compile(order)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("case %d after %d joins: Compile error %v, whole build error %v", c, m, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if g.Len() != want.Len() || !slices.Equal(transOf(&g.successors), transOf(&want.successors)) {
				t.Fatalf("case %d after %d joins: the grown structure differs from the whole build", c, m)
			}
			if !slices.Equal(g.order, order) {
				t.Fatalf("case %d: order %v, want %v", c, g.order, order)
			}
		}
	}

	chain := indexedChain{chainModel{n: 4, goal: 2}}
	whole, err := NewStructure(chain)
	if err != nil {
		t.Fatal(err)
	}
	g := grownWhole(t, whole, []int32{3, 1, 0, 2})
	for name, order := range map[string][]int32{
		"short":     {3, 1, 0},
		"long":      {3, 1, 0, 2, 2},
		"repeated":  {3, 1, 1, 2},
		"negative":  {3, 1, -1, 2},
		"too large": {3, 1, 4, 2},
	} {
		if err := g.Compile(order); err == nil {
			t.Errorf("Compile accepted a %s order %v", name, order)
		}
	}
}

// TestStructureRejectsDuplicateStates: two indices with one key would alias one
// row of the table Solve works on in place, so neither constructor accepts a
// repeated key.
func TestStructureRejectsDuplicateStates(t *testing.T) {
	chain := indexedChain{chainModel{n: 6, goal: 2}}
	states, actions := chain.States(), chain.Actions()
	trans := make([]int32, len(states)*actions)
	for s := range states {
		for a := 0; a < actions; a++ {
			trans[s*actions+a] = int32(chain.NextIndex(s, a))
		}
	}
	dup := slices.Clone(states)
	dup[4] = dup[1]
	if _, err := NewStructureFromTransitions(dup, actions, trans); err == nil {
		t.Error("NewStructureFromTransitions accepted a repeated state key")
	}
	if _, err := NewStructure(duplicateChain{chain}); err == nil {
		t.Error("NewStructure accepted a model listing a state twice")
	}
	if _, err := NewStructureFromTransitions(states, actions, trans); err != nil {
		t.Fatalf("distinct keys rejected: %v", err)
	}
}

// duplicateChain lists its last state under its first state's key.
type duplicateChain struct{ indexedChain }

func (c duplicateChain) States() []string {
	states := c.indexedChain.States()
	states[len(states)-1] = states[0]
	return states
}

// solveSlab is Solve over a whole structure as it ran before it swept state
// values: Gauss–Seidel in place over the slab q, every feasible entry
// compared against, then set to, the current value of the state it leads to,
// the row's backup taken over what it now holds. prev receives the values
// the last sweep began with. Its inputs are Solve's, already validated. It is
// the oracle FuzzSolve and TestSolveMatchesSlab hold Solve to.
func solveSlab(q []float64, st *Structure, rewards, prev, val []float64, cfg BatchConfig) BatchResult {
	n, actions, trans := st.Len(), st.actions, transOf(&st.successors)
	gamma, eps := cfg.Params.Gamma, cfg.Params.Epsilon
	for s := range n {
		row, next := q[s*actions:(s+1)*actions], trans[s*actions:(s+1)*actions]
		var best, sum float64
		k := 0
		for a, to := range next {
			if to < 0 {
				continue
			}
			v := row[a]
			sum += v
			if k == 0 || v > best {
				best = v
			}
			k++
		}
		backup := float64((1-eps)*best + eps*sum/float64(k))
		val[s] = rewards[s] + gamma*backup
	}
	var res BatchResult
	for sweep := 0; sweep < max(cfg.MaxSweeps, 1); sweep++ {
		copy(prev[:n], val[:n])
		var maxErr float64
		for i := 0; i < n; i++ {
			s := i
			if sweep%2 == 1 {
				s = n - 1 - i
			}
			row, next := q[s*actions:(s+1)*actions], trans[s*actions:(s+1)*actions]
			var best, sum float64
			k := 0
			for a, to := range next {
				if to < 0 {
					continue
				}
				target := val[to]
				if d := math.Abs(target - row[a]); d > maxErr {
					maxErr = d
				}
				row[a] = target
				sum += target
				if k == 0 || target > best {
					best = target
				}
				k++
			}
			backup := float64((1-eps)*best + eps*sum/float64(k))
			val[s] = rewards[s] + gamma*backup
		}
		res.Sweeps = sweep + 1
		res.FinalErr = maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}
	return res
}

// solveLive is the solve a growing structure ran before it kept values: the
// slab sweep solveSlab, over q in the structure's sweep order, reading and
// setting only feasible entries. Its first sweep compares each entry
// against what q held. prev receives the values the last sweep began with.
// It is the oracle FuzzSolve holds GrowingStructure.Solve to.
func solveLive(q []float64, g *GrowingStructure, rewards, prev, val []float64, cfg BatchConfig) BatchResult {
	n, actions, trans := g.Len(), g.actions, transOf(&g.successors)
	gamma, eps := cfg.Params.Gamma, cfg.Params.Epsilon
	for s := range n {
		row, next := q[s*actions:(s+1)*actions], trans[s*actions:(s+1)*actions]
		var best, sum float64
		k := 0
		for a, to := range next {
			if to < 0 {
				continue
			}
			v := row[a]
			sum += v
			if k == 0 || v > best {
				best = v
			}
			k++
		}
		backup := float64((1-eps)*best + eps*sum/float64(k))
		val[s] = rewards[s] + gamma*backup
	}
	var res BatchResult
	for sweep := 0; sweep < max(cfg.MaxSweeps, 1); sweep++ {
		copy(prev[:n], val[:n])
		var maxErr float64
		for i := 0; i < n; i++ {
			p := i
			if sweep%2 == 1 {
				p = n - 1 - i
			}
			s := int(g.order[p])
			row, next := q[s*actions:(s+1)*actions], trans[s*actions:(s+1)*actions]
			var best, sum float64
			k := 0
			for a, to := range next {
				if to < 0 {
					continue
				}
				target := val[to]
				if d := math.Abs(target - row[a]); d > maxErr {
					maxErr = d
				}
				row[a] = target
				sum += target
				if k == 0 || target > best {
					best = target
				}
				k++
			}
			backup := float64((1-eps)*best + eps*sum/float64(k))
			val[s] = rewards[s] + gamma*backup
		}
		res.Sweeps = sweep + 1
		res.FinalErr = maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}
	return res
}

// checkGrowingMatchesLive grows two structures over trans (n states,
// actions wide), each one state at a time, each joining state's moves to
// states not yet joined infeasible until those join. The first reads its
// join order and then its solves from in; the second joins in the reverse
// order and reads its solves from a copy of what follows the first's join
// order, so the first reads the input as a single structure would. The two
// take turns, so their solves and compiles share one scratch. A structure
// solves at points the input picks, each over a sweep order it picks —
// recompiled, or the last one kept when no state joined since — with fresh
// rewards. Every entry starts as warm's value, which GrowingStructure.Solve
// reads through held until a solve sets it. After each solve of either,
// both structures' values and entries must equal solveLive's over a slab
// each carries across its solves, bit for bit: a solve that left its
// scratch in a structure would rewrite the other's.
func checkGrowingMatchesLive(t *testing.T, in *fuzzBytes, n, actions int, trans []int32, warm []float64, cfg BatchConfig) {
	t.Helper()
	first := newGrower(n, actions, trans, warm)
	for k := n - 1; k > 0; k-- {
		j := int(in.next()) % (k + 1)
		first.joins[k], first.joins[j] = first.joins[j], first.joins[k]
	}
	second := newGrower(n, actions, trans, warm)
	for k, s := range first.joins {
		second.joins[n-1-k] = s
	}
	rest := *in
	growers := [2]struct {
		gr *grower
		in *fuzzBytes
	}{{first, in}, {second, &rest}}
	for k := range n {
		for i, x := range growers {
			x.gr.join(k)
			for solves := 0; solves < 2 && x.in.next()%2 == 1; solves++ {
				if !x.gr.solve(t, x.in, cfg) {
					break // a state with no feasible move yet
				}
				for _, other := range growers {
					other.gr.check(t, fmt.Sprintf("after grower %d solved %d states", i, k+1))
				}
			}
		}
	}
}

// grower is one structure checkGrowingMatchesLive grows, with the slab and
// values of the solveLive oracle it is held to.
type grower struct {
	n, actions int
	trans      []int32
	at         []int32 // the grown index of each state, −1 before it joins
	joins      []int   // the states in join order
	g          *GrowingStructure
	q          []float64 // the oracle's slab, by grown index
	held       func(s, a int) float64
	next       []int32
	prev, val  []float64 // the oracle's values after its last solve
	solved     int       // states the last solve took part in
	compiled   bool
}

// newGrower returns an empty grower that joins states in index order.
func newGrower(n, actions int, trans []int32, warm []float64) *grower {
	gr := &grower{n: n, actions: actions, trans: trans, at: make([]int32, n), joins: make([]int, n),
		g: NewGrowingStructure(actions), q: slices.Clone(warm), next: make([]int32, actions),
		prev: make([]float64, n), val: make([]float64, n)}
	gr.held = func(s, a int) float64 { return warm[s*actions+a] }
	for s := range n {
		gr.at[s], gr.joins[s] = -1, s
	}
	return gr
}

// join appends the k-th state of the join order and links the moves of the
// states already joined that lead to it.
func (gr *grower) join(k int) {
	s := gr.joins[k]
	gr.at[s] = int32(k)
	for a := range gr.next {
		gr.next[a] = -1
		if to := gr.trans[s*gr.actions+a]; to >= 0 {
			gr.next[a] = gr.at[to]
		}
	}
	gr.g.Append(gr.next)
	for _, h := range gr.joins[:k] {
		for a := range gr.actions {
			if gr.trans[h*gr.actions+a] == int32(s) {
				gr.g.Link(int(gr.at[h]), a, int32(k))
			}
		}
	}
	gr.compiled = false
}

// solve compiles the structure over an order the input picks, unless it is
// compiled and the input keeps its order, and solves it with rewards the
// input picks, beside solveLive; it reports false when Compile refused.
func (gr *grower) solve(t *testing.T, in *fuzzBytes, cfg BatchConfig) bool {
	t.Helper()
	m := gr.g.Len()
	if !gr.compiled || in.next()%2 == 1 {
		order := make([]int32, m)
		for d := range order {
			order[d] = int32(d)
		}
		for d := m - 1; d > 0; d-- {
			j := int(in.next()) % (d + 1)
			order[d], order[j] = order[j], order[d]
		}
		if err := gr.g.Compile(order); err != nil {
			return false
		}
		gr.compiled = true
	}
	rewards := make([]float64, m)
	for i := range rewards {
		rewards[i] = in.value()
	}
	got, err := gr.g.Solve(rewards, gr.held, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := solveLive(gr.q[:m*gr.actions], gr.g, rewards, gr.prev, gr.val, cfg)
	if got.Sweeps != want.Sweeps || got.Converged != want.Converged ||
		math.Float64bits(got.FinalErr) != math.Float64bits(want.FinalErr) {
		t.Fatalf("%d states: Solve %+v, solveLive %+v", m, got, want)
	}
	gr.solved = m
	return true
}

// check requires the values the structure keeps, one of each per state
// solved in no more room than the allocator gives that many, and every
// entry it holds (Entry, else warm's) to equal the oracle's, bit for bit. A
// structure that kept a borrowed vector would keep the room of the largest
// solve it served.
func (gr *grower) check(t *testing.T, when string) {
	t.Helper()
	m, g := gr.solved, gr.g
	if len(g.last.Val) != m || len(g.last.Prev) != m || len(g.last.pos) != m {
		t.Fatalf("%s: %d states solved, the structure keeps %d, %d values and %d positions",
			when, m, len(g.last.Prev), len(g.last.Val), len(g.last.pos))
	}
	if rv, rp := room[float64](m), room[int32](m); cap(g.last.Val) > rv || cap(g.last.Prev) > rv || cap(g.last.pos) > rp {
		t.Fatalf("%s: %d states solved, the structure keeps room for %d, %d values and %d positions; the allocator gives %d and %d",
			when, m, cap(g.last.Prev), cap(g.last.Val), cap(g.last.pos), rv, rp)
	}
	for i := range m {
		if math.Float64bits(g.last.Val[i]) != math.Float64bits(gr.val[i]) ||
			math.Float64bits(g.last.Prev[i]) != math.Float64bits(gr.prev[i]) {
			t.Fatalf("%s: %d states: state %d values %v, %v; solveLive's %v, %v",
				when, m, i, g.last.Prev[i], g.last.Val[i], gr.prev[i], gr.val[i])
		}
		for a := range gr.actions {
			v, ok := g.Entry(i, a)
			if !ok {
				v = gr.held(i, a)
			}
			if math.Float64bits(v) != math.Float64bits(gr.q[i*gr.actions+a]) {
				t.Fatalf("%s: %d states: entry (%d, %d) holds %v, solveLive's slab %v",
					when, m, i, a, v, gr.q[i*gr.actions+a])
			}
		}
	}
}

// room returns the capacity the allocator gives a new slice of m entries
// of T: m rounded up to its size class.
func room[T any](m int) int { return cap(slices.Grow([]T(nil), m)) }

// checkSolveMatchesSlab holds Solve over the whole structure st to solveSlab
// bit for bit: the BatchResult, val, prev and, when warm is non-nil, the slab
// Solve writes back from warm. With warm nil, Solve runs with no slab and
// then again over a slab of zeros, each against solveSlab from zeros.
func checkSolveMatchesSlab(t *testing.T, st *Structure, rewards, warm []float64, cfg BatchConfig) {
	t.Helper()
	n := st.Len()
	wantQ := slices.Clone(warm)
	if warm == nil {
		wantQ = make([]float64, n*st.actions)
	}
	wantPrev, wantVal := make([]float64, n), make([]float64, n)
	want := solveSlab(wantQ, st, rewards, wantPrev, wantVal, cfg)
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, the slab oracle's %v", what, i, got[i], want[i])
			}
		}
	}
	slabs := [][]float64{slices.Clone(warm)}
	if warm == nil {
		slabs = append(slabs, make([]float64, n*st.actions))
	}
	for _, q := range slabs {
		var v Values
		got, err := Solve(q, st, rewards, &v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sweeps != want.Sweeps || got.Converged != want.Converged ||
			math.Float64bits(got.FinalErr) != math.Float64bits(want.FinalErr) {
			t.Fatalf("slab of %d values: Solve %+v, the slab oracle %+v", len(q), got, want)
		}
		same("val", v.Val, wantVal)
		same("prev", v.Prev, wantPrev)
		if q != nil {
			same("slab", q, wantQ)
		}
	}
}

// TestSolveMatchesSlab holds Solve to solveSlab on the offline MDP of every
// Table-2 context, at sweep bounds whose last sweep runs forward (1, 3, and
// the converged solve under 400) and backward (2, 30).
func TestSolveMatchesSlab(t *testing.T) {
	for _, ctx := range system.Table2() {
		st, rewards := table2Lattice(t, ctx)
		for _, sweeps := range []int{1, 2, 3, 30, 400} {
			cfg := offlineSchedule()
			cfg.MaxSweeps = sweeps
			if sweeps < 400 {
				cfg.Theta = 0
			}
			t.Run(fmt.Sprintf("%s/sweeps=%d", ctx.Name, sweeps), func(t *testing.T) {
				checkSolveMatchesSlab(t, st, rewards, nil, cfg)
			})
		}
	}
}

// TestSolveNoSlabAllocFree: over a whole structure, with no slab and val and
// prev of the state count, Solve allocates nothing.
func TestSolveNoSlabAllocFree(t *testing.T) {
	ctx, err := system.ContextByName("context-3")
	if err != nil {
		t.Fatal(err)
	}
	st, rewards := table2Lattice(t, ctx)
	v := Values{Prev: make([]float64, st.Len()), Val: make([]float64, st.Len())}
	cfg := offlineSchedule()
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := Solve(nil, st, rewards, &v, cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a solve with no slab allocates %.1f times per run, want 0", allocs)
	}
}

// TestGrowingFirstSweepMatchesWhole holds the two first sweeps to each other:
// a whole structure's from zeros (Solve with no slab) and a grown one's from
// held entries (GrowingStructure.Solve). Each Table-2 group lattice, grown
// state by state in index order and solved with every entry held at zero,
// leaves the BatchResult and the values the whole lattice's solve leaves, bit
// for bit, at sweep bounds whose last sweep runs forward (1, 3, and the
// converged solve under 400) and backward (2, 30).
func TestGrowingFirstSweepMatchesWhole(t *testing.T) {
	zero := func(int, int) float64 { return 0 }
	for _, ctx := range system.Table2() {
		st, rewards := table2Lattice(t, ctx)
		order := make([]int32, st.Len())
		for s := range order {
			order[s] = int32(s)
		}
		for _, sweeps := range []int{1, 2, 3, 30, 400} {
			cfg := offlineSchedule()
			cfg.MaxSweeps = sweeps
			if sweeps < 400 {
				cfg.Theta = 0
			}
			var want Values
			wantRes, err := Solve(nil, st, rewards, &want, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := grownWhole(t, st, order)
			got, err := g.Solve(rewards, zero, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sweeps != wantRes.Sweeps || got.Converged != wantRes.Converged ||
				math.Float64bits(got.FinalErr) != math.Float64bits(wantRes.FinalErr) || g.last.forward != want.forward {
				t.Fatalf("%s/sweeps=%d: grown %+v (forward %v), whole %+v (forward %v)",
					ctx.Name, sweeps, got, g.last.forward, wantRes, want.forward)
			}
			for s := range want.Val {
				if math.Float64bits(g.last.Prev[s]) != math.Float64bits(want.Prev[s]) ||
					math.Float64bits(g.last.Val[s]) != math.Float64bits(want.Val[s]) {
					t.Fatalf("%s/sweeps=%d: state %d grown %v, %v; whole %v, %v",
						ctx.Name, sweeps, s, g.last.Prev[s], g.last.Val[s], want.Prev[s], want.Val[s])
				}
			}
		}
	}
}

// fuzzBytes reads a fuzz input one byte at a time, 0 once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// value decodes a float64 from the input: ±0, ±Inf, NaN or a finite value
// in [−512, 512).
func (b *fuzzBytes) value() float64 {
	switch c := b.next(); c % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	default:
		return float64(int16(uint16(b.next())<<8|uint16(c))) / 64
	}
}

// FuzzSolve holds Solve to solveSlab bit for bit over small whole structures
// decoded from the input: up to 8 states and 5 actions, moves infeasible,
// to the state itself (under any action) or to any state; rewards and warm
// slab entries ±0, ±Inf, NaN or finite; no slab or a warm one; a sweep bound
// of 1–6 and Theta zero or positive; γ in [0, 0.99] and ε in [0, 1]. The
// rest of the input grows the same structure state by state, twice in two
// join orders, and holds GrowingStructure.Solve to solveLive over both
// (checkGrowingMatchesLive):
// warm entries held before any solve, frontier entries linked between
// solves, and solves with and without a new order.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	// Two states that move to each other, one sweep from no slab: its
	// largest change is what state 0 sets its entry to, state 1's value
	// before the sweep.
	f.Add([]byte{1, 0, 6, 2, 0, 5, 1, 0, 0, 0, 50, 10})
	// One Keep-only state, reward 325/64, one sweep from no slab: its move
	// to itself reads its own value, so the sweep's largest change is the
	// reward, which the sweep from zeros counts through the self-move bit.
	f.Add([]byte{0, 0, 1, 0x45, 0x01, 0, 0, 0, 50, 10})
	f.Add([]byte{7, 4, 9, 13, 2, 6, 10, 14, 1, 5, 3, 7, 11, 15, 21, 33, 45, 57, 69, 81, 93, 105, 117, 129, 5, 90, 10, 1, 3})
	f.Add([]byte{3, 2, 5, 5, 5, 5, 6, 6, 6, 6, 0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7})
	f.Add(bytes.Repeat([]byte{0x9d, 0x42, 0x17, 0xe8}, 40))
	// Eight states, Keep-like self moves among the first actions, grown and
	// solved after most joins, some solves keeping the last order.
	f.Add(append([]byte{7, 4}, bytes.Repeat([]byte{0x35, 0x0d, 0x93, 0x61, 0x27, 0xb1}, 80)...))
	// Two states grown and solved, whose entries read values from before
	// the last sweep and from after it.
	f.Add([]byte("10000700000000000001000107000000000000000000000000000000000000000000000000000000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n, actions := 1+int(in.next()%8), 1+int(in.next()%5)
		trans := make([]int32, n*actions)
		states := make([]string, n)
		for s := range n {
			states[s] = strconv.Itoa(s)
			row := trans[s*actions : (s+1)*actions]
			for a := range row {
				switch c := in.next(); {
				case c%4 == 0:
					row[a] = -1
				case c%4 == 1:
					row[a] = int32(s)
				default:
					row[a] = int32(int(c/4) % n)
				}
			}
			if !slices.ContainsFunc(row, func(to int32) bool { return to >= 0 }) {
				row[0] = int32(s)
			}
		}
		st, err := NewStructureFromTransitions(states, actions, trans)
		if err != nil {
			t.Fatal(err)
		}
		rewards := make([]float64, n)
		for s := range rewards {
			rewards[s] = in.value()
		}
		var warm []float64
		if in.next()%2 == 1 {
			warm = make([]float64, n*actions)
			for i := range warm {
				warm[i] = in.value()
			}
		}
		cfg := DefaultBatchConfig()
		cfg.MaxSweeps = 1 + int(in.next()%6)
		cfg.Theta = 0
		if c := in.next(); c%2 == 1 {
			cfg.Theta = float64(c) / 64
		}
		cfg.Params.Gamma = float64(in.next()%100) / 100
		cfg.Params.Epsilon = float64(in.next()%101) / 100
		checkSolveMatchesSlab(t, st, rewards, warm, cfg)
		if warm == nil {
			warm = make([]float64, n*actions)
		}
		checkGrowingMatchesLive(t, &in, n, actions, trans, warm, cfg)
	})
}
