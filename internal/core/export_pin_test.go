package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/system"
)

// analyticPolicy trains a quick policy for a Table-2 context over the
// noise-free analytic surface (two coarse levels, the default offline solve).
func analyticPolicy(t *testing.T, space *config.Space, name string) *Policy {
	t.Helper()
	ctx, err := system.ContextByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := LearnPolicyStream(name, space, nil, InitOptions{
		CoarseLevels: 2, BatchSampler: system.AnalyticSampler(space, ctx, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// analyticAgent builds an agent over a fresh noise-free context-1 analytic
// system applied at cfg (nil: the space default).
func analyticAgent(t *testing.T, space *config.Space, cfg config.Config, opts AgentOptions) *Agent {
	t.Helper()
	sys, err := system.NewAnalytic(system.AnalyticOptions{Space: space, Initial: cfg})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// stepN steps a n times and appends each step's result to log.
func stepN(t *testing.T, a *Agent, n int, log *[]StepResult) {
	t.Helper()
	for i := 0; i < n; i++ {
		res, err := a.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		*log = append(*log, res)
	}
}

// pinnedAgents steps five agents 40 times each on the noise-free analytic
// backend and returns each one's final ExportState JSON and step results:
// one seeded by a policy; one with no policy, whose ε-greedy choice reads
// zero rows for unsampled states; one that switches policy at step 20; one
// restored from its own step-20 checkpoint into a fresh agent and system
// (its first 20 results are the exporting agent's); and a frozen agent with
// no policy. The restored agent must end in the uninterrupted one's state.
func pinnedAgents(t *testing.T) (states map[string][]byte, steps map[string][]StepResult) {
	t.Helper()
	space := config.Default()
	p1, p3 := analyticPolicy(t, space, "context-1"), analyticPolicy(t, space, "context-3")
	store := NewPolicyStore(p1, p3)
	states, steps = map[string][]byte{}, map[string][]StepResult{}
	run := func(name string, a *Agent, n int) {
		t.Helper()
		log := steps[name]
		stepN(t, a, n, &log)
		steps[name] = log
	}
	// A wide exploration rate spreads each 40-step run over tens of states.
	explore := DefaultOptions()
	explore.Online.Epsilon = 0.3

	seeded := analyticAgent(t, space, nil, AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 21})
	run("seeded", seeded, 40)
	states["seeded"] = exportJSON(t, seeded)

	cold := analyticAgent(t, space, nil, AgentOptions{Options: explore, Seed: 22})
	run("cold", cold, 40)
	states["cold"] = exportJSON(t, cold)

	switched := analyticAgent(t, space, nil, AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 23})
	run("switched", switched, 20)
	switched.ForcePolicy(p3)
	run("switched", switched, 20)
	states["switched"] = exportJSON(t, switched)

	first := analyticAgent(t, space, nil, AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 24})
	run("restored", first, 20)
	st, err := LoadAgentState(bytes.NewReader(exportJSON(t, first)))
	if err != nil {
		t.Fatal(err)
	}
	restored := analyticAgent(t, space, config.Config(st.Config), AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 99})
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	run("restored", restored, 20)
	var rest []StepResult
	stepN(t, first, 20, &rest)
	if got, want := exportJSON(t, restored), exportJSON(t, first); !bytes.Equal(got, want) {
		t.Fatal("the agent restored at step 20 ends in another state than the uninterrupted one")
	}
	states["restored"] = exportJSON(t, restored)

	frozen := analyticAgent(t, space, nil, AgentOptions{Frozen: true, Seed: 25})
	run("frozen", frozen, 40)
	states["frozen"] = exportJSON(t, frozen)
	return states, steps
}

// TestExportStatePinned pins the ExportState JSON of pinnedAgents' five
// agents. The persistence edge renders every state key, so any change in the
// agent's learned state or the sample table, or in the format, moves a hash.
func TestExportStatePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("agent states are pinned for amd64 floating point")
	}
	states, _ := pinnedAgents(t)
	want := map[string]string{
		"seeded":   "545f321a84f776cfb3160d2e0538febbdd010493a0650b8408202da32d925e60",
		"cold":     "913465aae4f4d4fc5371e171502c88f78369539948fd55dbf8e7b7c0ef333c36",
		"switched": "99d13b9db402d71078749e3fa62d6cb7fd78eac03abc4f56db82ba3a17690d7e",
		"restored": "b7d40713ea94bab04887ff73ed2902852e4225617d5ad7b10764f9d4f20774ca",
		"frozen":   "07ee2070581a096ec0c223eda71f9939d65456371b9bbb411b7c6c6ddcd78e8d",
	}
	for name, blob := range states {
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: ExportState JSON hash %s, pinned %s", name, got, want[name])
		}
	}
}

// TestStepResultsPinned pins what pinnedAgents' five agents do, not how they
// store it: the SHA-256 of every StepResult, printed with %+v (shortest
// round-tripping floats), per agent. A change of the snapshot format leaves
// it alone; a change of what the agent chooses, measures or learns moves it.
func TestStepResultsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("step results are pinned for amd64 floating point")
	}
	_, steps := pinnedAgents(t)
	want := map[string]string{
		"seeded":   "ec312cae689394c98aefdd902398409a3d14044257a6e226a658749450f042b5",
		"cold":     "f1b90be5a985e347823800269195cde08a5a9046f52fb9ced6b45d3261f6e8b4",
		"switched": "28c72cfcb988429b9c6def4c67691609e02213834c84467c94b4a6b702077194",
		"restored": "af6a3c05a09825dc1aebc6d11c66bcd4237f3a09fa5f174fbfc7b9d0715a35fe",
		"frozen":   "2c4021f619da044c99ca39e245c8aacf85ccb86de987ac81cac9e5e00271f71d",
	}
	if len(steps) != len(want) {
		t.Fatalf("%d agents stepped, %d pinned", len(steps), len(want))
	}
	for name, log := range steps {
		h := sha256.New()
		for _, res := range log {
			fmt.Fprintf(h, "%+v\n", res)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: %d step results hash %s, pinned %s", name, len(log), got, want[name])
		}
	}
}
