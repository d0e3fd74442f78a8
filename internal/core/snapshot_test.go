package core

import (
	"bytes"
	"context"
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

	bad = *good
	bad.QTable = nil
	if err := a.RestoreState(&bad); err == nil {
		t.Error("missing Q-table accepted")
	}

	bad = *good
	bad.QTable = &mdp.QTableJSON{Actions: 3, Rows: map[string][]float64{}}
	if err := a.RestoreState(&bad); err == nil {
		t.Error("wrong action count accepted")
	}

	// The pristine snapshot still restores after all the rejected attempts.
	if err := a.RestoreState(good); err != nil {
		t.Fatalf("good snapshot rejected after failed restores: %v", err)
	}
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

// FuzzRestoreAgentState feeds arbitrary bytes through the checkpoint path a
// restarted agent takes: LoadAgentState, RestoreState on a bowl-system agent
// bound to a trained policy, then two Steps. No input may panic, a rejected
// snapshot must leave the agent able to step, and a snapshot that restores
// must export again exactly as it decoded. The seeds are a real mid-run
// export and single-field mutations of it.
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
	f.Add(saved)
	for _, mutate := range []func(st *AgentState){
		func(st *AgentState) { st.Version++ },
		func(st *AgentState) { st.Config = st.Config[:2] },
		func(st *AgentState) { st.Config = make([]int, len(st.Config)) },
		func(st *AgentState) { st.PolicyName = "never-trained" },
		func(st *AgentState) { st.Window = make([]float64, 64) },
		func(st *AgentState) { st.Samples = map[string]float64{"not-a-key": 1} },
		func(st *AgentState) { st.QTable = nil },
		func(st *AgentState) { st.QTable = &mdp.QTableJSON{Actions: st.QTable.Actions} },
		func(st *AgentState) {
			st.QTable = &mdp.QTableJSON{Actions: 3, Rows: map[string][]float64{"not-a-key": {1, 2, 3}}}
		},
	} {
		st := *good
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
