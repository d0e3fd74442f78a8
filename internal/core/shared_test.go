package core

import (
	"context"
	"testing"
)

// TestAgentsSharePolicyStructureWithoutCrosstalk is the end-to-end COW
// regression for the fleet's shared Q-structure: many agents warm-started
// from one Policy instance share its seeded rows and interned MDP structure,
// and one agent's online learning must never bleed into another's decisions.
// Agent b shares a policy with a heavily-stepped agent a; agent c holds an
// identically-trained but independent policy. b and c run the same seed over
// identical systems, so their trajectories must match exactly.
func TestAgentsSharePolicyStructureWithoutCrosstalk(t *testing.T) {
	shared := bowlPolicy(t, bowlTargets, "cow-shared")
	control := bowlPolicy(t, bowlTargets, "cow-control")

	sysA := newBowlSystem(bowlTargets)
	a, err := NewAgent(sysA, AgentOptions{Policy: shared, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	// a learns hard against the shared policy first, materializing deltas
	// over many of the seeded states.
	for i := 0; i < 20; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	run := func(p *Policy) []StepResult {
		t.Helper()
		sys := newBowlSystem(bowlTargets)
		ag, err := NewAgent(sys, AgentOptions{Policy: p, Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]StepResult, 12)
		for i := range out {
			res, err := ag.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}

	got := run(shared)
	want := run(control)
	for i := range want {
		if got[i].Config.Key() != want[i].Config.Key() ||
			got[i].MeanRT != want[i].MeanRT ||
			got[i].Reward != want[i].Reward {
			t.Fatalf("step %d diverged: shared-policy agent %+v, control %+v — agent a's learning leaked through the shared rows",
				i, got[i], want[i])
		}
	}

	// The snapshot of a fresh shared-policy agent stays delta-only: it must
	// not embed the policy's seeded values, only what the agent learned.
	sysFresh := newBowlSystem(bowlTargets)
	fresh, err := NewAgent(sysFresh, AgentOptions{Policy: shared, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := fresh.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	stA, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Val) >= len(stA.Val) {
		t.Errorf("fresh agent snapshot carries %d state values, learner %d — deltas are not sparse",
			len(st.Val), len(stA.Val))
	}
}
