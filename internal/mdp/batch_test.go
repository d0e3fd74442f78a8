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
	trans, off, feas := st.trans, st.off, st.feas

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

// solveTable is Solve over the table's own rows, bound the way BatchTrain and
// the offline trainer bind them.
func solveTable(q *QTable, st *Structure, rewards []float64, cfg BatchConfig) (BatchResult, error) {
	return Solve(q.OwnRows(st.States()), st, rewards, nil, cfg)
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
	rowsOf := func(actions int) [][]float64 {
		rows := make([][]float64, len(st.States()))
		for s := range rows {
			rows[s] = make([]float64, actions)
		}
		return rows
	}
	rows := rowsOf(3)
	cases := []struct {
		name    string
		rows    [][]float64
		st      *Structure
		rewards []float64
		cfg     BatchConfig
	}{
		{"nil rows", nil, st, rewards, good},
		{"nil structure", rows, nil, rewards, good},
		{"short rows", rows[:len(rows)-1], st, rewards, good},
		{"short rewards", rows, st, rewards[:len(rewards)-1], good},
		{"long rewards", rows, st, append(rewards, 0), good},
		{"action-count mismatch", rowsOf(2), st, rewards, good},
		{"zero alpha", rows, st, rewards, bad(func(p *Params) { p.Alpha = 0 })},
		{"gamma one", rows, st, rewards, bad(func(p *Params) { p.Gamma = 1 })},
		{"negative epsilon", rows, st, rewards, bad(func(p *Params) { p.Epsilon = -0.1 })},
	}
	for _, tc := range cases {
		if _, err := Solve(tc.rows, tc.st, tc.rewards, nil, tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	for _, row := range rows {
		if slices.ContainsFunc(row, func(v float64) bool { return v != 0 }) {
			t.Fatalf("a rejected call wrote a row: %v", row)
		}
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
	// A non-positive sweep bound is clamped to one, not rejected.
	res, err := Solve(rows, st, rewards, nil, BatchConfig{Params: DefaultOffline()})
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
// group lattice at the offline schedule: the solve, and the sampled SARSA
// sweep it replaced (the string-keyed reference loop, which runs to the
// 400-sweep bound).
func BenchmarkSolveGroupLattice(b *testing.B) {
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		b.Fatal(err)
	}
	st, rewards := table2Lattice(b, ctx)
	cfg := offlineSchedule()
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveTable(NewQTable(st.Actions(), 0), st, rewards, cfg); err != nil {
				b.Fatal(err)
			}
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
			if to := st.trans[int(s)*actions+a]; to >= 0 {
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
func grownWhole(t *testing.T, st *Structure, order []int32) *Structure {
	t.Helper()
	g := NewGrowingStructure(st.actions)
	for s, state := range st.states {
		g.Append(state, st.trans[s*st.actions:(s+1)*st.actions])
	}
	if err := g.Compile(order); err != nil {
		t.Fatal(err)
	}
	return &g.Structure
}

// checkOrderedSolveMatchesReference holds Solve over st grown with sweep order
// order to solveReference over st permuted into that order: the same
// BatchResult and bit-identical tables.
func checkOrderedSolveMatchesReference(t *testing.T, st *Structure, rewards []float64, cfg BatchConfig, perm []int,
	build func() (*QTable, *QTable)) {
	t.Helper()
	order := make([]int32, len(perm))
	for d, s := range perm {
		order[d] = int32(s)
	}
	got, want := build()
	gotRes, err := solveTable(got, grownWhole(t, st, order), rewards, cfg)
	if err != nil {
		t.Fatal(err)
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

// TestGrowingStructureMatchesWhole: a structure grown in place — states
// appended in a random join order with the edges to states already held,
// edges from held states linked as their targets join, Compile at random
// points of the growth — equals NewStructureFromTransitions on the same table
// relabelled in join order, at every Compile and at the end, on 200 random
// tables. Compile rejects an order that is not a permutation of the states,
// and a structure built whole has no order.
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
			if idx := g.Append("s"+strconv.Itoa(s), next); idx != int32(k) {
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
			if !slices.Equal(g.states, want.states) || !slices.Equal(g.trans, want.trans) ||
				!slices.Equal(g.off, want.off) || !slices.Equal(g.feas, want.feas) || !slices.Equal(g.succ, want.succ) {
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
	g := &GrowingStructure{*grownWhole(t, whole, []int32{3, 1, 0, 2})}
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
	if whole.order != nil {
		t.Error("a structure built whole has a sweep order")
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
