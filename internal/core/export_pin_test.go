package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

func stepN(t *testing.T, a *Agent, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExportStatePinned pins the ExportState JSON of five agents after 40
// steps on the noise-free analytic backend: one seeded by a policy; one with
// no policy, whose ε-greedy choice reads zero rows for unsampled states; one
// that switches policy at step 20; one restored from its own step-20
// checkpoint into a fresh agent and system; and a frozen agent with no
// policy, whose snapshot holds only the zero rows its choices materialized.
// The persistence edge renders every state key, so any change in the rows an
// agent holds, their values or the sample table moves a hash.
func TestExportStatePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("agent states are pinned for amd64 floating point")
	}
	space := config.Default()
	p1, p3 := analyticPolicy(t, space, "context-1"), analyticPolicy(t, space, "context-3")
	store := NewPolicyStore(p1, p3)
	export := func(a *Agent) []byte {
		t.Helper()
		return exportJSON(t, a)
	}
	states := map[string][]byte{}
	// A wide exploration rate spreads each 40-step run over tens of states.
	explore := DefaultOptions()
	explore.Online.Epsilon = 0.3

	seeded := analyticAgent(t, space, nil, AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 21})
	stepN(t, seeded, 40)
	states["seeded"] = export(seeded)

	cold := analyticAgent(t, space, nil, AgentOptions{Options: explore, Seed: 22})
	stepN(t, cold, 40)
	states["cold"] = export(cold)

	switched := analyticAgent(t, space, nil, AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 23})
	stepN(t, switched, 20)
	switched.ForcePolicy(p3)
	stepN(t, switched, 20)
	states["switched"] = export(switched)

	first := analyticAgent(t, space, nil, AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 24})
	stepN(t, first, 20)
	st, err := LoadAgentState(bytes.NewReader(export(first)))
	if err != nil {
		t.Fatal(err)
	}
	restored := analyticAgent(t, space, config.Config(st.Config), AgentOptions{Options: explore, Policy: p1, Store: store, Seed: 99})
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	stepN(t, restored, 20)
	stepN(t, first, 20)
	if got, want := export(restored), export(first); !bytes.Equal(got, want) {
		t.Fatal("the agent restored at step 20 ends in another state than the uninterrupted one")
	}
	states["restored"] = export(restored)

	frozen := analyticAgent(t, space, nil, AgentOptions{Frozen: true, Seed: 25})
	stepN(t, frozen, 40)
	states["frozen"] = export(frozen)

	want := map[string]string{
		"seeded":   "89668f731a8bb43286e9fbea2a0b387857353e3df4dd26db4c53f921ddbe9512",
		"cold":     "3bb8762fdca613ba83bb31315c019812e06c845c3cbde02cacf1d8e98250b17a",
		"switched": "b7983dcf6088f9ac08e11744bf756ba1aab1f44eb660c3dd315b1ca5289a1f1a",
		"restored": "31f210370cb7f3f321e153483e2ffb81aa62f2ab907a83a0f596061f138f851d",
		"frozen":   "dc7d0ce8cbb33d47ec1044294b894af31fa7d2d80ed1f3ce8bbfa8d93bb19c7d",
	}
	for name, blob := range states {
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: ExportState JSON hash %s, pinned %s", name, got, want[name])
		}
	}
}
