package core

import (
	"bytes"
	"context"
	"maps"
	"math"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/system"
)

// exportJSON serializes an agent's state, failing the test on error.
func exportJSON(t *testing.T, a *Agent) []byte {
	t.Helper()
	st, err := a.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func TestAgentStateRoundTripByteIdentical(t *testing.T) {
	sys := newBowlSystem([]float64{400, 20, 30, 60})
	a, err := NewAgent(sys, AgentOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	first := exportJSON(t, a)

	// Restore into a freshly constructed agent and re-export: the two
	// snapshots must match byte for byte.
	sys2 := newBowlSystem([]float64{400, 20, 30, 60})
	b, err := NewAgent(sys2, AgentOptions{Seed: 99}) // different seed: restore overwrites it
	if err != nil {
		t.Fatal(err)
	}
	st, err := LoadAgentState(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	second := exportJSON(t, b)
	if !bytes.Equal(first, second) {
		t.Fatalf("snapshot round trip not byte-identical:\n%s\nvs\n%s", first, second)
	}
}

func TestAgentResumeMatchesUninterruptedRun(t *testing.T) {
	const total, cut = 30, 13
	targets := []float64{420, 25, 35, 55}

	// Reference: one uninterrupted run.
	ref, err := NewAgent(newBowlSystem(targets), AgentOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var refSteps []StepResult
	for i := 0; i < total; i++ {
		s, err := ref.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		refSteps = append(refSteps, s)
	}

	// Interrupted: run to the cut, export, rebuild everything from scratch
	// (new system, new agent), restore, and finish the run.
	sysA := newBowlSystem(targets)
	a, err := NewAgent(sysA, AgentOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	blob := exportJSON(t, a)

	sysB := newBowlSystem(targets)
	// The bowl system is memoryless given its configuration; re-apply the
	// snapshot's configuration as the fleet restore path does.
	st, err := LoadAgentState(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := sysB.Apply(context.Background(), append([]int(nil), st.Config...)); err != nil {
		t.Fatal(err)
	}
	b, err := NewAgent(sysB, AgentOptions{Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < total; i++ {
		s, err := b.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := refSteps[i]
		if s.Iteration != want.Iteration || s.Config.Key() != want.Config.Key() ||
			s.MeanRT != want.MeanRT || s.Reward != want.Reward || s.Action != want.Action {
			t.Fatalf("resumed step %d diverged: got %+v want %+v", i+1, s, want)
		}
	}

	// Final learned state must be byte-identical too.
	refBlob := exportJSON(t, ref)
	resBlob := exportJSON(t, b)
	if !bytes.Equal(refBlob, resBlob) {
		t.Fatal("resumed run's final state differs from the uninterrupted run")
	}
}

func TestAgentResumeWithSnapshottableSystem(t *testing.T) {
	// A noisy analytic system consumes its RNG every Measure; resuming must
	// restore the system state too, or the streams diverge.
	mk := func() *system.Analytic {
		sys, err := system.NewAnalytic(system.AnalyticOptions{Seed: 11, NoiseSigma: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	const total, cut = 16, 7

	refSys := mk()
	ref, err := NewAgent(refSys, AgentOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var refRTs []float64
	for i := 0; i < total; i++ {
		s, err := ref.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		refRTs = append(refRTs, s.MeanRT)
	}

	sysA := mk()
	a, err := NewAgent(sysA, AgentOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	agentBlob := exportJSON(t, a)
	sysBlob, err := sysA.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	sysB := mk()
	if err := sysB.ImportState(sysBlob); err != nil {
		t.Fatal(err)
	}
	b, err := NewAgent(sysB, AgentOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := LoadAgentState(bytes.NewReader(agentBlob))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < total; i++ {
		s, err := b.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if s.MeanRT != refRTs[i] {
			t.Fatalf("step %d: resumed rt %v, uninterrupted %v", i+1, s.MeanRT, refRTs[i])
		}
	}
}

func TestAgentRestoreRejectsBadSnapshots(t *testing.T) {
	sys := newBowlSystem([]float64{400, 20, 30, 60})
	a, err := NewAgent(sys, AgentOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	good, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	if err := a.RestoreState(nil); err == nil {
		t.Error("nil state accepted")
	}

	bad := *good
	bad.Version = AgentStateVersion + 1
	if err := a.RestoreState(&bad); err == nil {
		t.Error("future version accepted")
	}

	bad = *good
	bad.PolicyName = "never-trained"
	if err := a.RestoreState(&bad); err == nil {
		t.Error("unknown policy accepted")
	}

	bad = *good
	bad.Config = []int{1, 2}
	if err := a.RestoreState(&bad); err == nil {
		t.Error("wrong-arity config accepted")
	}

	// The persistence edge takes only what an agent exports: canonical keys
	// of the space's configurations and, for version 2, a value pair for
	// every state of the region its samples span and no rows.
	key := a.Config().Key()
	for name, mutate := range map[string]func(st *AgentState){
		"non-canonical sample key": func(st *AgentState) { st.Samples = map[string]float64{"0" + key: 1} },
		"sample outside the space": func(st *AgentState) { st.Samples = map[string]float64{"1,2": 1} },
		"values without samples":   func(st *AgentState) { st.Samples = nil },
		"one value short":          func(st *AgentState) { st.Val = st.Val[1:] },
		"one value too many":       func(st *AgentState) { st.Prev = append(slices.Clone(st.Prev), 0) },
		"samples without values":   func(st *AgentState) { st.Prev, st.Val = nil, nil },
		"a Q-table beside the values": func(st *AgentState) {
			st.QTable = &mdp.QTableJSON{Actions: len(a.actions), Rows: map[string][]float64{}}
		},
	} {
		bad = *good
		mutate(&bad)
		if err := a.RestoreState(&bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// A version-1 snapshot holds rows: canonical keys, initial value 0, a row
	// for every state of the region, each the one the values derived from
	// them derive, and a state outside the region the zero row an agent
	// without a policy reads there.
	v1 := versionOne(t, a)
	if err := a.RestoreState(v1); err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	rows := v1.QTable.Rows
	outside := a.space.DefaultConfig()
	outside[0] = a.space.Def(0).Min
	for name, mutate := range map[string]func(rows map[string][]float64) map[string][]float64{
		"missing Q-table": func(map[string][]float64) map[string][]float64 { return nil },
		"row key outside the space": func(rows map[string][]float64) map[string][]float64 {
			rows["garbage"] = make([]float64, len(a.actions))
			return rows
		},
		"short row": func(rows map[string][]float64) map[string][]float64 {
			rows[key] = rows[key][:1]
			return rows
		},
		"region state without a row": func(rows map[string][]float64) map[string][]float64 {
			delete(rows, key)
			return rows
		},
		"a row one ulp off": func(rows map[string][]float64) map[string][]float64 {
			row := slices.Clone(rows[key])
			row[0] = math.Nextafter(row[0], math.Inf(1))
			rows[key] = row
			return rows
		},
		"a nonzero row outside the region": func(rows map[string][]float64) map[string][]float64 {
			row := make([]float64, len(a.actions))
			row[0] = 1
			rows[outside.Key()] = row
			return rows
		},
	} {
		bad = *v1
		table := *v1.QTable
		table.Rows = mutate(maps.Clone(rows))
		bad.QTable = &table
		if table.Rows == nil {
			bad.QTable = nil
		}
		if err := a.RestoreState(&bad); err == nil {
			t.Errorf("version 1: %s accepted", name)
		}
	}
	for name, table := range map[string]mdp.QTableJSON{
		"wrong action count":    {Actions: 3, Rows: rows},
		"nonzero initial value": {Actions: len(a.actions), Initial: 1, Rows: rows},
	} {
		bad = *v1
		bad.QTable = &table
		if err := a.RestoreState(&bad); err == nil {
			t.Errorf("version 1: %s accepted", name)
		}
	}
	if _, ok := rows[outside.Key()]; ok {
		t.Fatalf("state %s is in the region; the test needs one outside it", outside.Key())
	}

	// The pristine snapshot still restores after all the rejected attempts.
	if err := a.RestoreState(good); err != nil {
		t.Fatalf("good snapshot rejected after failed restores: %v", err)
	}
}

// versionOne returns a's state as a version-1 snapshot held it: every row of
// its region in place of the values.
func versionOne(tb testing.TB, a *Agent) *AgentState {
	tb.Helper()
	st, err := a.ExportState()
	if err != nil {
		tb.Fatal(err)
	}
	st.Version, st.Prev, st.Val, st.Forward = 1, nil, nil, false
	st.QTable = &mdp.QTableJSON{Actions: len(a.actions), Rows: heldRows(a.region)}
	return st
}

func TestForcePolicySwitchesImmediately(t *testing.T) {
	targets := []float64{400, 20, 30, 60}
	sys := newBowlSystem(targets)
	p := bowlPolicy(t, targets, "forced")
	a, err := NewAgent(sys, AgentOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	a.ForcePolicy(p)
	if a.Policy() != p {
		t.Fatal("ForcePolicy did not install the policy")
	}
	s, err := a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.PolicyName != "forced" {
		t.Fatalf("step after ForcePolicy reports policy %q", s.PolicyName)
	}
	a.ForcePolicy(nil)
	if a.Policy() != nil {
		t.Fatal("ForcePolicy(nil) did not clear the policy")
	}
}

func TestLoadAgentStateRejectsTrailingData(t *testing.T) {
	a, err := NewAgent(newBowlSystem(bowlTargets), AgentOptions{Policy: bowlPolicy(t, bowlTargets, "trailing"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	saved := exportJSON(t, a)
	if _, err := LoadAgentState(bytes.NewReader(append(slices.Clone(saved), "\n "...))); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{" junk", "{}"} {
		if _, err := LoadAgentState(bytes.NewReader(append(slices.Clone(saved), tail...))); err == nil {
			t.Errorf("snapshot followed by %q loaded", tail)
		}
	}
}

// FuzzRestoreAgentState feeds arbitrary bytes through the checkpoint path a
// restarted agent takes: LoadAgentState, RestoreState on a bowl-system agent
// bound to a trained policy, then two Steps. No input may panic, a rejected
// snapshot must leave the agent able to step, and a snapshot that restores
// must export again exactly as it decoded — a version-1 one as another
// agent restored from that export exports again. The seeds are a real
// mid-run export in both versions and single-field mutations of each.
func FuzzRestoreAgentState(f *testing.F) {
	policy := bowlPolicy(f, bowlTargets, "fuzz-restore")
	newAgent := func(tb testing.TB) *Agent {
		a, err := NewAgent(newBowlSystem(bowlTargets), AgentOptions{Policy: policy, Seed: 5})
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}
	a := newAgent(f)
	for i := 0; i < 8; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	good, err := a.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	encode := func(st AgentState) []byte {
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	saved := encode(*good)
	v1 := versionOne(f, a)
	f.Add(saved)
	f.Add(encode(*v1))
	for _, mutate := range []func(st *AgentState){
		func(st *AgentState) { st.Version++ },
		func(st *AgentState) { st.Config = st.Config[:2] },
		func(st *AgentState) { st.Config = make([]int, len(st.Config)) },
		func(st *AgentState) { st.PolicyName = "never-trained" },
		func(st *AgentState) { st.Window = make([]float64, 64) },
		func(st *AgentState) { st.Samples = map[string]float64{"not-a-key": 1} },
		func(st *AgentState) { st.Val = st.Val[1:] },
		func(st *AgentState) { st.Forward = !st.Forward },
		func(st *AgentState) { st.QTable = v1.QTable },
	} {
		st := *good
		mutate(&st)
		f.Add(encode(st))
	}
	for _, mutate := range []func(st *AgentState){
		func(st *AgentState) { st.QTable = nil },
		func(st *AgentState) { st.QTable = &mdp.QTableJSON{Actions: st.QTable.Actions} },
		func(st *AgentState) {
			st.QTable = &mdp.QTableJSON{Actions: 3, Rows: map[string][]float64{"not-a-key": {1, 2, 3}}}
		},
		func(st *AgentState) { st.Samples = nil },
	} {
		st := *v1
		mutate(&st)
		f.Add(encode(st))
	}
	f.Add(saved[:len(saved)/2])
	f.Add(append(slices.Clone(saved), " junk"...))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a := newAgent(t)
		st, err := LoadAgentState(bytes.NewReader(data))
		if err == nil {
			if err := a.RestoreState(st); err == nil {
				var want bytes.Buffer
				if st.Version == 1 {
					// A version-1 snapshot exports as version 2, which must
					// restore to the same state again.
					b := newAgent(t)
					st, err = LoadAgentState(bytes.NewReader(exportJSON(t, a)))
					if err != nil {
						t.Fatal(err)
					}
					if err := b.RestoreState(st); err != nil {
						t.Fatalf("a restored version-1 snapshot exports a state that does not restore: %v", err)
					}
					a = b
				}
				if err := st.Save(&want); err != nil {
					t.Fatal(err)
				}
				if got := exportJSON(t, a); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("restored snapshot exports differently:\n%s\nvs\n%s", got, want.Bytes())
				}
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := a.Step(context.Background()); err != nil {
				t.Fatalf("step %d after restore attempt: %v", i, err)
			}
		}
	})
}
