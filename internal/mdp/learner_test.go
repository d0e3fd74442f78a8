package mdp

import (
	"math"
	"strconv"
	"testing"

	"github.com/rac-project/rac/internal/sim"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"defaults offline", DefaultOffline(), true},
		{"defaults online", DefaultOnline(), true},
		{"zero alpha", Params{Alpha: 0, Gamma: 0.9, Epsilon: 0.1}, false},
		{"alpha above one", Params{Alpha: 1.5, Gamma: 0.9, Epsilon: 0.1}, false},
		{"gamma one", Params{Alpha: 0.1, Gamma: 1, Epsilon: 0.1}, false},
		{"negative gamma", Params{Alpha: 0.1, Gamma: -0.1, Epsilon: 0.1}, false},
		{"epsilon above one", Params{Alpha: 0.1, Gamma: 0.9, Epsilon: 1.1}, false},
		{"zero epsilon ok", Params{Alpha: 0.1, Gamma: 0.9, Epsilon: 0}, true},
	}
	for _, tt := range tests {
		if err := tt.p.Validate(); (err == nil) != tt.ok {
			t.Errorf("%s: err=%v", tt.name, err)
		}
	}
}

func TestPaperHyperParameters(t *testing.T) {
	off := DefaultOffline()
	if off.Alpha != 0.1 || off.Gamma != 0.9 || off.Epsilon != 0.1 {
		t.Fatalf("offline params %+v differ from the paper", off)
	}
	on := DefaultOnline()
	if on.Alpha != 0.1 || on.Gamma != 0.9 || on.Epsilon != 0.05 {
		t.Fatalf("online params %+v differ from the paper", on)
	}
}

func TestNewLearnerValidation(t *testing.T) {
	q := NewQTable(2, 0)
	rng := sim.NewRNG(1)
	if _, err := NewLearner(nil, DefaultOnline(), rng); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := NewLearner(q, Params{}, rng); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := NewLearner(q, DefaultOnline(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestUpdateSARSA(t *testing.T) {
	q := NewQTable(2, 0)
	l, err := NewLearner(q, Params{Alpha: 0.5, Gamma: 0.9, Epsilon: 0}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	q.Set("s2", 1, 10)
	tdErr := l.UpdateSARSA("s1", 0, 1, "s2", 1)
	// target = 1 + 0.9*10 = 10; delta = 10; new Q = 0 + 0.5*10 = 5.
	if math.Abs(tdErr-10) > 1e-12 {
		t.Fatalf("td error %v", tdErr)
	}
	if got := q.Get("s1", 0); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Q after update %v", got)
	}
}

func TestUpdateQUsesMax(t *testing.T) {
	q := NewQTable(3, 0)
	l, err := NewLearner(q, Params{Alpha: 1, Gamma: 0.5, Epsilon: 0}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	q.Set("s2", 0, 1)
	q.Set("s2", 1, 4)
	q.Set("s2", 2, 2)
	l.UpdateQ("s1", 0, 2, "s2")
	// target = 2 + 0.5*max(1,4,2) = 4.
	if got := q.Get("s1", 0); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Q after update %v", got)
	}
}

func TestUpdateReturnsAbsError(t *testing.T) {
	q := NewQTable(1, 0)
	l, _ := NewLearner(q, Params{Alpha: 0.1, Gamma: 0.9, Epsilon: 0}, sim.NewRNG(1))
	if e := l.UpdateSARSA("a", 0, -5, "b", 0); e != 5 {
		t.Fatalf("negative delta abs = %v", e)
	}
}

func TestSelectActionGreedy(t *testing.T) {
	q := NewQTable(3, 0)
	q.Set("s", 0, 1)
	q.Set("s", 1, 9)
	q.Set("s", 2, 5)
	l, _ := NewLearner(q, Params{Alpha: 0.1, Gamma: 0.9, Epsilon: 0}, sim.NewRNG(1))
	for i := 0; i < 20; i++ {
		if got := l.SelectAction("s", []int{0, 1, 2}); got != 1 {
			t.Fatalf("greedy selection = %d", got)
		}
	}
	// Restricting the allowed set must be honored.
	if got := l.SelectAction("s", []int{0, 2}); got != 2 {
		t.Fatalf("restricted selection = %d", got)
	}
}

func TestSelectActionExplores(t *testing.T) {
	q := NewQTable(3, 0)
	q.Set("s", 0, 100)
	l, _ := NewLearner(q, Params{Alpha: 0.1, Gamma: 0.9, Epsilon: 0.5}, sim.NewRNG(7))
	nonGreedy := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if l.SelectAction("s", []int{0, 1, 2}) != 0 {
			nonGreedy++
		}
	}
	// ε=0.5 with 3 actions → 1/3 of explorations hit the greedy arm anyway:
	// expect ~n/3 non-greedy picks.
	frac := float64(nonGreedy) / n
	if frac < 0.25 || frac > 0.42 {
		t.Fatalf("non-greedy fraction %v, want ~0.33", frac)
	}
}

func TestSelectActionPanicsOnEmpty(t *testing.T) {
	q := NewQTable(1, 0)
	l, _ := NewLearner(q, DefaultOnline(), sim.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty allowed set")
		}
	}()
	l.SelectAction("s", nil)
}

func TestSetEpsilonClamps(t *testing.T) {
	q := NewQTable(1, 0)
	l, _ := NewLearner(q, DefaultOnline(), sim.NewRNG(1))
	l.SetEpsilon(-1)
	if l.Params().Epsilon != 0 {
		t.Fatal("negative epsilon not clamped")
	}
	l.SetEpsilon(2)
	if l.Params().Epsilon != 1 {
		t.Fatal("epsilon above one not clamped")
	}
}

// chainModel is a deterministic 1-D random walk MDP: states 0..n-1, actions
// stay/right/left, reward peaks at the goal state. These are its string-keyed
// methods; indexedChain adds the dense ones that make it a Model.
type chainModel struct {
	n    int
	goal int
}

func (c chainModel) States() []string {
	out := make([]string, c.n)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}

func (c chainModel) Actions() int { return 3 }

func (c chainModel) Next(state string, action int) (string, bool) {
	i, err := strconv.Atoi(state)
	if err != nil {
		return state, false
	}
	switch action {
	case 0:
		return state, true
	case 1:
		if i+1 >= c.n {
			return state, false
		}
		return strconv.Itoa(i + 1), true
	case 2:
		if i-1 < 0 {
			return state, false
		}
		return strconv.Itoa(i - 1), true
	}
	return state, false
}

func (c chainModel) Reward(state string) float64 {
	i, _ := strconv.Atoi(state)
	d := i - c.goal
	if d < 0 {
		d = -d
	}
	return -float64(d)
}

func TestBatchTrainFindsGoal(t *testing.T) {
	model := indexedChain{chainModel{n: 9, goal: 6}}
	q := NewQTable(model.Actions(), 0)
	res, err := BatchTrain(q, model, DefaultBatchConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps == 0 {
		t.Fatal("no sweeps ran")
	}
	// The greedy policy over feasible actions must walk to the goal from any
	// state. (Greedy queries must restrict to feasible actions, as the online
	// agent does: infeasible edge actions keep their initial value because
	// training never updates them.)
	bestFeasible := func(state string) (int, bool) {
		row := q.Row(state)
		best, bestV, found := 0, 0.0, false
		for a := 0; a < model.Actions(); a++ {
			if _, ok := model.Next(state, a); !ok {
				continue
			}
			if !found || row[a] > bestV {
				best, bestV, found = a, row[a], true
			}
		}
		return best, found
	}
	for start := 0; start < model.n; start++ {
		state := strconv.Itoa(start)
		for step := 0; step < model.n+2; step++ {
			if state == strconv.Itoa(model.goal) {
				break
			}
			a, ok := bestFeasible(state)
			if !ok {
				t.Fatalf("no feasible action at %s", state)
			}
			next, ok := model.Next(state, a)
			if !ok || next == state {
				t.Fatalf("greedy policy stuck at %s (from %d)", state, start)
			}
			state = next
		}
		if state != strconv.Itoa(model.goal) {
			t.Fatalf("greedy policy from %d ended at %s, want %d", start, state, model.goal)
		}
	}
}

func TestBatchTrainConverges(t *testing.T) {
	// The solve meets a tight threshold at the paper's exploration rate, where
	// the sampled SARSA sweep it replaced never settled.
	model := indexedChain{chainModel{n: 5, goal: 2}}
	q := NewQTable(model.Actions(), 0)
	cfg := DefaultBatchConfig()
	cfg.MaxSweeps = 5000
	cfg.Theta = 0.001
	res, err := BatchTrain(q, model, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final err %v after %d sweeps", res.FinalErr, res.Sweeps)
	}
}

func TestBatchTrainValidation(t *testing.T) {
	model := indexedChain{chainModel{n: 3, goal: 1}}
	rng := sim.NewRNG(1)
	if _, err := BatchTrain(nil, model, DefaultBatchConfig(), rng); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := BatchTrain(NewQTable(3, 0), nil, DefaultBatchConfig(), rng); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := BatchTrain(NewQTable(2, 0), model, DefaultBatchConfig(), rng); err == nil {
		t.Fatal("action-count mismatch accepted")
	}
}

// TestBatchTrainRejectsDeadEnds: one state without a feasible action is enough
// to refuse the whole model — a trajectory entering it could not continue.
func TestBatchTrainRejectsDeadEnds(t *testing.T) {
	model := oneDeadEnd{indexedChain{chainModel{n: 5, goal: 2}}}
	if _, err := BatchTrain(NewQTable(3, 0), model, DefaultBatchConfig(), sim.NewRNG(1)); err == nil {
		t.Fatal("model with a dead-end state accepted")
	}
}

// oneDeadEnd is a chain whose state 3 has no feasible action.
type oneDeadEnd struct {
	indexedChain
}

func (m oneDeadEnd) NextIndex(s, action int) int {
	if s == 3 {
		return -1
	}
	return m.indexedChain.NextIndex(s, action)
}

// Params returns the hyper-parameters.
func (l *Learner) Params() Params { return l.params }

// SetEpsilon adjusts the exploration rate (paper §5.5 switches it between
// batch training and online decision making). Only the tests change it: the
// agent's rate is fixed by its options.
func (l *Learner) SetEpsilon(eps float64) {
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	l.params.Epsilon = eps
}

// UpdateQ applies the off-policy Q-learning update
//
//	Q(s,a) += α [ r + γ max_a' Q(s',a') − Q(s,a) ]
//
// and returns the absolute TD error. The agent plans with mdp.Solve, so only
// the tests run the off-policy update.
func (l *Learner) UpdateQ(state string, action int, reward float64, next string) float64 {
	cur := l.table.Get(state, action)
	target := reward + l.params.Gamma*l.table.MaxValue(next)
	delta := target - cur
	l.table.Set(state, action, cur+l.params.Alpha*delta)
	if delta < 0 {
		return -delta
	}
	return delta
}
