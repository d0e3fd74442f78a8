package core

import (
	"context"
	"testing"

	"github.com/rac-project/rac/internal/telemetry"
)

func TestAgentEmitsTelemetry(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTrace(256)
	agent, err := NewAgent(sys, AgentOptions{Seed: 7, Telemetry: reg, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 8
	for i := 0; i < iters; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	if got := reg.Counter("rac_agent_steps_total", "", nil).Value(); got != iters {
		t.Errorf("steps counter = %d, want %d", got, iters)
	}
	if got := reg.Counter("rac_agent_retrains_total", "", nil).Value(); got != iters {
		t.Errorf("retrains counter = %d, want %d", got, iters)
	}
	if got := reg.Gauge("rac_agent_epsilon", "", nil).Value(); got != agent.opts.Online.Epsilon {
		t.Errorf("epsilon gauge = %v, want %v", got, agent.opts.Online.Epsilon)
	}

	// Each iteration emits one retrain and one step event, in that order.
	events := trace.Snapshot()
	if len(events) != 2*iters {
		t.Fatalf("trace has %d events, want %d", len(events), 2*iters)
	}
	for i := 0; i < iters; i++ {
		re, st := events[2*i], events[2*i+1]
		if re.Kind != telemetry.KindRetrain || st.Kind != telemetry.KindStep {
			t.Fatalf("event pair %d = %s,%s, want retrain,step", i, re.Kind, st.Kind)
		}
		if st.Iteration != i+1 || re.Iteration != i+1 {
			t.Errorf("event pair %d iteration = %d/%d, want %d", i, re.Iteration, st.Iteration, i+1)
		}
		if st.State == "" || st.Action == "" {
			t.Errorf("step event %d missing state/action: %+v", i, st)
		}
	}
}

func TestAgentTracesPolicySwitch(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	pA := bowlPolicy(t, bowlTargets, "ctx-A")
	otherTargets := []float64{100, 3, 15, 85}
	pB := bowlPolicy(t, otherTargets, "ctx-B")
	store := NewPolicyStore(pA, pB)
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTrace(1024)

	agent, err := NewAgent(sys, AgentOptions{
		Policy: pA, Store: store, Seed: 19, Telemetry: reg, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sys.targets = otherTargets
	sys.shift = 3
	switched := false
	for i := 0; i < 15 && !switched; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		switched = res.Switched
	}
	if !switched {
		t.Fatal("agent never switched policy")
	}

	if got := reg.Counter("rac_agent_policy_switches_total", "", nil).Value(); got != 1 {
		t.Errorf("switch counter = %d, want 1", got)
	}
	if got := reg.Counter("rac_agent_policy_reselections_total", "", nil).Value(); got != 0 {
		t.Errorf("reselection counter = %d after a switch to another policy, want 0", got)
	}
	var ev *telemetry.Event
	for _, e := range trace.Snapshot() {
		if e.Kind == telemetry.KindPolicySwitch {
			e := e
			ev = &e
		}
	}
	if ev == nil {
		t.Fatal("no policy-switch event in trace")
	}
	if ev.Policy != "ctx-B" || ev.Detail != "ctx-A -> ctx-B" {
		t.Errorf("switch event = %+v, want policy ctx-B, detail ctx-A -> ctx-B", ev)
	}
}

// TestAgentCountsReselections: a detected context change for which the store
// matches the active policy again is a reselection. It still resets the
// Q-table and counts as a switch; the reselection counter counts it too.
func TestAgentCountsReselections(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	p := bowlPolicy(t, bowlTargets, "ctx-A")
	reg := telemetry.NewRegistry()
	agent, err := NewAgent(sys, AgentOptions{Policy: p, Store: NewPolicyStore(p), Seed: 19, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sys.targets = []float64{100, 3, 15, 85}
	sys.shift = 3
	switches := 0
	for i := 0; i < 30; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Switched {
			switches++
			// The step learns its own measurement into the fresh table.
			if res.PolicyName != "ctx-A" || sampleCount(agent) != 1 {
				t.Fatalf("step %d: reselection left policy %q and %d samples; want ctx-A and a reset table",
					res.Iteration, res.PolicyName, sampleCount(agent))
			}
		}
	}
	if switches == 0 {
		t.Fatal("the agent never detected the context change")
	}
	for _, name := range []string{"rac_agent_policy_switches_total", "rac_agent_policy_reselections_total"} {
		if got := reg.Counter(name, "", nil).Value(); got != int64(switches) {
			t.Errorf("%s = %d, want %d", name, got, switches)
		}
	}
	agent.ForcePolicy(p)
	if got := reg.Counter("rac_agent_policy_reselections_total", "", nil).Value(); got != int64(switches) {
		t.Errorf("a forced switch counted as a reselection: %d, want %d", got, switches)
	}
}

// TestForcePolicyResetsViolationsGauge checks a forced switch publishes the
// violation counter it zeroes, so the gauge does not show the pre-switch
// count until the next Step, and traces the switch as "forced: old -> new".
func TestForcePolicyResetsViolationsGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTrace(16)
	a, err := NewAgent(newBowlSystem(bowlTargets), AgentOptions{Seed: 3, Telemetry: reg, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st.Violations = 3
	if err := a.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	gauge := reg.Gauge("rac_agent_consecutive_violations", "", nil)
	if got := gauge.Value(); got != 3 {
		t.Fatalf("gauge after restore = %v, want 3", got)
	}
	a.ForcePolicy(bowlPolicy(t, bowlTargets, "forced"))
	if got := gauge.Value(); got != 0 {
		t.Errorf("gauge after ForcePolicy = %v, want 0", got)
	}
	if got := reg.Counter("rac_agent_policy_switches_total", "", nil).Value(); got != 1 {
		t.Errorf("switch counter = %d, want 1", got)
	}
	events := trace.Snapshot()
	if len(events) != 1 || events[0].Kind != telemetry.KindPolicySwitch ||
		events[0].Policy != "forced" || events[0].Detail != "forced:  -> forced" {
		t.Errorf("trace = %+v, want one forced switch event", events)
	}
}
