package mdp

import (
	"bytes"
	"strconv"
	"testing"

	"github.com/rac-project/rac/internal/sim"
)

// indexedChain wraps chainModel with dense-index transitions, making it
// eligible for the SoA fast path.
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

// genericOnly hides the indexed methods of a model so BatchTrain takes the
// string-keyed path even for models that implement IndexedModel.
type genericOnly struct {
	m Model
}

func (g genericOnly) States() []string                    { return g.m.States() }
func (g genericOnly) Actions() int                        { return g.m.Actions() }
func (g genericOnly) Next(s string, a int) (string, bool) { return g.m.Next(s, a) }
func (g genericOnly) Reward(s string) float64             { return g.m.Reward(s) }

func qtableBytes(t *testing.T, q *QTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchTrainIndexedMatchesGeneric pins the fast path's contract: training
// an IndexedModel on the dense SoA path produces a Q-table byte-identical to
// the one the generic string-keyed path produces, for the same seed —
// including under exploration, convergence cutoffs, and seeded initial rows.
func TestBatchTrainIndexedMatchesGeneric(t *testing.T) {
	model := indexedChain{chainModel{n: 9, goal: 6}}
	seeder := func(state string) []float64 {
		i, err := strconv.Atoi(state)
		if err != nil {
			return nil
		}
		return []float64{float64(i) * 0.25, -0.5, float64(i%3) - 1}
	}
	cases := []struct {
		name string
		cfg  func() BatchConfig
		seed Seeder
	}{
		{"default", DefaultBatchConfig, nil},
		{"seeded-rows", DefaultBatchConfig, seeder},
		{"converging", func() BatchConfig {
			cfg := DefaultBatchConfig()
			cfg.Params.Epsilon = 0
			cfg.MaxSweeps = 5000
			cfg.Theta = 0.001
			return cfg
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				qFast := NewQTable(model.Actions(), 0.1)
				qFast.SetSeeder(tc.seed)
				resFast, err := BatchTrain(qFast, model, tc.cfg(), sim.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				qSlow := NewQTable(model.Actions(), 0.1)
				qSlow.SetSeeder(tc.seed)
				resSlow, err := BatchTrain(qSlow, genericOnly{model}, tc.cfg(), sim.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				if resFast != resSlow {
					t.Fatalf("seed %d: results diverge: fast %+v, slow %+v", seed, resFast, resSlow)
				}
				fast, slow := qtableBytes(t, qFast), qtableBytes(t, qSlow)
				if !bytes.Equal(fast, slow) {
					t.Fatalf("seed %d: Q-tables diverge between dense and generic training", seed)
				}
			}
		})
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

// deadEndIndexed has no feasible actions anywhere, via the indexed path.
type deadEndIndexed struct {
	deadEndModel
}

func (deadEndIndexed) NextIndex(int, int) int  { return -1 }
func (deadEndIndexed) RewardIndex(int) float64 { return 0 }

func TestBatchTrainIndexedRejectsDeadEnds(t *testing.T) {
	if _, err := BatchTrain(NewQTable(1, 0), deadEndIndexed{}, DefaultBatchConfig(), sim.NewRNG(1)); err == nil {
		t.Fatal("dead-end indexed model accepted")
	}
}

// prebuilt serves a Structure its caller assembled from a raw transition
// table, the way core's region shapes do, reading NextIndex back through it.
type prebuilt struct {
	indexedChain
	st *Structure
}

func (p prebuilt) NextIndex(s, action int) int    { return p.st.Next(s, action) }
func (p prebuilt) Structure() (*Structure, error) { return p.st, nil }

// TestStructureFromTransitions: a caller-supplied table yields the structure
// NewStructure derives through NextIndex, trains to the same bytes, and is
// held to the same closure checks.
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

	train := func(model Model) []byte {
		t.Helper()
		q := NewQTable(actions, 0)
		if _, err := BatchTrain(q, model, DefaultBatchConfig(), sim.NewRNG(42)); err != nil {
			t.Fatal(err)
		}
		return qtableBytes(t, q)
	}
	if !bytes.Equal(train(chain), train(prebuilt{chain, st})) {
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
