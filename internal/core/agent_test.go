package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// bowlSystem is a synthetic System whose response-time surface is a smooth
// bowl over the group means, with a switchable "context" that relocates the
// bowl. It lets agent tests run instantly and with exact expectations.
type bowlSystem struct {
	space   *config.Space
	cfg     config.Config
	targets []float64
	shift   float64 // additive RT offset (simulates a context with worse base RT)
	applied int
	metered int
}

func newBowlSystem(targets []float64) *bowlSystem {
	space := config.Default()
	return &bowlSystem{
		space:   space,
		cfg:     space.DefaultConfig(),
		targets: targets,
	}
}

func (b *bowlSystem) rt(cfg config.Config) float64 {
	groups, _ := b.space.Grouping()
	vec := groups.AppendMeans(nil, cfg)
	rt := 0.2 + b.shift
	for i, v := range vec {
		d := (v - b.targets[i]) / 100
		rt += d * d
	}
	return rt
}

func (b *bowlSystem) Space() *config.Space  { return b.space }
func (b *bowlSystem) Config() config.Config { return b.cfg.Clone() }

func (b *bowlSystem) Apply(ctx context.Context, cfg config.Config) error {
	if err := b.space.Validate(cfg); err != nil {
		return err
	}
	b.cfg = cfg.Clone()
	b.applied++
	return nil
}

func (b *bowlSystem) Measure(ctx context.Context) (system.Metrics, error) {
	b.metered++
	rt := b.rt(b.cfg)
	return system.Metrics{MeanRT: rt, P95RT: 2 * rt, Throughput: 50, Completed: 5000, IntervalSeconds: 300}, nil
}

var _ system.System = (*bowlSystem)(nil)

// bowlPolicyCache avoids re-running the (deliberately long) converged
// offline training for every test that needs the same synthetic policy.
var (
	bowlPolicyMu    sync.Mutex
	bowlPolicyCache = map[string]*Policy{}
)

func bowlPolicy(t testing.TB, targets []float64, name string) *Policy {
	t.Helper()
	key := fmt.Sprint(name, targets)
	bowlPolicyMu.Lock()
	defer bowlPolicyMu.Unlock()
	if p, ok := bowlPolicyCache[key]; ok {
		return p
	}
	space := config.Default()
	ref := newBowlSystem(targets)
	sampler := func(cfg config.Config) (float64, error) { return ref.rt(cfg), nil }
	p, err := learnPolicy(name, space, sampler, InitOptions{CoarseLevels: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bowlPolicyCache[key] = p
	return p
}

var bowlTargets = []float64{300, 11, 45, 55}

// sampleCount returns the number of states the agent has measured.
func sampleCount(a *Agent) int {
	if a.region == nil {
		return 0
	}
	return len(a.region.samples)
}

func TestAgentConvergesTowardOptimum(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	policy := bowlPolicy(t, bowlTargets, "bowl")
	agent, err := NewAgent(sys, AgentOptions{Policy: policy, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	startRT := sys.rt(sys.Config())
	var last StepResult
	for i := 0; i < 25; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Iteration != i+1 {
			t.Fatalf("iteration %d, want %d", res.Iteration, i+1)
		}
		last = res
	}
	if last.MeanRT >= startRT {
		t.Fatalf("agent did not improve: start %v, final %v", startRT, last.MeanRT)
	}
	// Within 25 iterations (the paper's bound) the agent should be well
	// below half the default's excess response time.
	excessStart := startRT - 0.2
	excessEnd := last.MeanRT - 0.2
	if excessEnd > excessStart*0.6 {
		t.Fatalf("agent converged poorly: excess %v → %v", excessStart, excessEnd)
	}
}

func TestAgentWithoutPolicyStillLearns(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewAgent(sys, AgentOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	first, err := agent.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sumEarly, sumLate float64
	for i := 0; i < 60; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i < 20 {
			sumEarly += res.MeanRT
		}
		if i >= 40 {
			sumLate += res.MeanRT
		}
	}
	if sumLate/20 > sumEarly/20+0.05 {
		t.Fatalf("uninitialized agent regressed: early %v late %v (first %v)",
			sumEarly/20, sumLate/20, first.MeanRT)
	}
}

func TestAgentRewardMatchesSLA(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewAgent(sys, AgentOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := agent.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultOptions().SLASeconds - res.MeanRT
	if math.Abs(res.Reward-want) > 1e-12 {
		t.Fatalf("reward %v, want %v", res.Reward, want)
	}
}

func TestAgentFrozenFollowsPolicyWithoutLearning(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	policy := bowlPolicy(t, bowlTargets, "bowl")
	agent, err := NewAgent(sys, AgentOptions{Policy: policy, Frozen: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var rts []float64
	for i := 0; i < 20; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, res.MeanRT)
	}
	// Frozen agents are deterministic (ε=0) and must not record samples.
	if sampleCount(agent) != 0 {
		t.Fatalf("frozen agent recorded %d samples", sampleCount(agent))
	}
	if rts[len(rts)-1] > rts[0] {
		t.Fatalf("frozen policy walked uphill: %v → %v", rts[0], rts[len(rts)-1])
	}
}

func TestAgentStepMovesAtMostOneStep(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewAgent(sys, AgentOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	prev := sys.Config()
	for i := 0; i < 30; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		diffs := 0
		for j := range res.Config {
			if res.Config[j] != prev[j] {
				diffs++
				step := sys.space.Def(j).Step
				if d := res.Config[j] - prev[j]; d != step && d != -step {
					t.Fatalf("iteration %d: parameter %d jumped by %d", i, j, d)
				}
			}
		}
		if diffs > 1 {
			t.Fatalf("iteration %d changed %d parameters", i, diffs)
		}
		prev = res.Config
	}
}

func TestAgentDetectsContextChangeAndSwitches(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	pA := bowlPolicy(t, bowlTargets, "ctx-A")
	otherTargets := []float64{100, 3, 15, 85}
	pB := bowlPolicy(t, otherTargets, "ctx-B")
	store := NewPolicyStore(pA, pB)

	agent, err := NewAgent(sys, AgentOptions{Policy: pA, Store: store, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Relocate the bowl and raise the floor: a drastic context change.
	sys.targets = otherTargets
	sys.shift = 3

	switched := false
	switchedAt := 0
	for i := 0; i < 15; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Switched {
			switched = true
			switchedAt = i + 1
			if res.PolicyName != "ctx-B" {
				t.Fatalf("switched to %q, want ctx-B", res.PolicyName)
			}
			break
		}
	}
	if !switched {
		t.Fatal("agent never detected the context change")
	}
	// Detection needs s_thr=5 consecutive violations, so the delay is a few
	// iterations (the paper's "policy switching delay"); large self-induced
	// improvements before the change can pre-charge the violation counter,
	// so the lower bound is loose.
	if switchedAt < 1 || switchedAt > 10 {
		t.Fatalf("switched after %d iterations", switchedAt)
	}
}

func TestAgentNoSwitchWithoutStore(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	pA := bowlPolicy(t, bowlTargets, "ctx-A")
	agent, err := NewAgent(sys, AgentOptions{Policy: pA, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sys.shift = 5
	for i := 0; i < 10; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Switched {
			t.Fatal("agent without a store switched policies")
		}
	}
}

func TestAgentValidation(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	if _, err := NewAgent(nil, AgentOptions{}); err == nil {
		t.Fatal("nil system accepted")
	}
	bad := DefaultOptions()
	bad.Window = 0
	if _, err := NewAgent(sys, AgentOptions{Options: bad}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero SLA", func(o *Options) { o.SLASeconds = 0 }},
		{"bad online", func(o *Options) { o.Online.Alpha = 0 }},
		{"bad batch", func(o *Options) { o.Batch.Gamma = 1 }},
		{"zero vthr", func(o *Options) { o.ViolationThreshold = 0 }},
		{"zero sthr", func(o *Options) { o.SwitchThreshold = 0 }},
		{"zero window", func(o *Options) { o.Window = 0 }},
	}
	for _, tt := range tests {
		o := DefaultOptions()
		tt.mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.ViolationThreshold != 0.3 || o.SwitchThreshold != 5 || o.Window != 10 {
		t.Fatalf("context-detection constants %+v differ from the paper", o)
	}
	if o.Online.Epsilon != 0.05 || o.Batch.Epsilon != 0.1 {
		t.Fatalf("exploration rates differ from the paper: %+v", o)
	}
}

func TestRegionModel(t *testing.T) {
	space := config.Default()
	base := space.DefaultConfig()
	samples := map[string]float64{base.Key(): 1.0}
	predict := func(cfg config.Config) float64 { return 2.0 }
	keys, cfgs := validSampleKeys(space, samples)
	sh := newRegionShape(space, keys, cfgs)
	rewards := sh.rewards(samples, predict, 2.0)

	// Region = sampled state + its one-step neighbours.
	acts := config.Actions(space)
	feasible := 0
	for _, a := range acts[1:] {
		if _, ok := a.Apply(space, base); ok {
			feasible++
		}
	}
	if len(sh.states) != feasible+1 || len(rewards) != len(sh.states) {
		t.Fatalf("region has %d states and %d rewards, want %d", len(sh.states), len(rewards), feasible+1)
	}
	index := make(map[string]int, len(sh.states))
	for s, key := range sh.states {
		index[key] = s
	}
	// Measured reward beats predicted reward (rt 1.0 vs 2.0, SLA 2).
	if got := rewards[index[base.Key()]]; got != 1.0 {
		t.Fatalf("measured reward %v", got)
	}
	next, _ := acts[1].Apply(space, base)
	if s, in := index[next.Key()]; !in || rewards[s] != 0.0 {
		t.Fatalf("predicted reward %v (in region: %v)", rewards[s], in)
	}
	// Without a predictor the frontier is SLA-neutral.
	for s, r := range sh.rewards(samples, nil, 2.0) {
		want := 0.0
		if sh.states[s] == base.Key() {
			want = 1.0
		}
		if r != want {
			t.Fatalf("state %s: reward %v without a predictor, want %v", sh.states[s], r, want)
		}
	}
	// Transitions stay closed over the region, and each lands on the state
	// the action's configuration renders to.
	if sh.structErr != nil {
		t.Fatal(sh.structErr)
	}
	for s := range sh.states {
		for a, act := range acts {
			to := nextOf(sh.structure, s, a)
			if to >= len(sh.states) {
				t.Fatalf("transition escapes region: %s -a%d-> %d", sh.states[s], a, to)
			}
			if want, ok := act.Apply(space, sh.cfg(s)); to >= 0 && (!ok || sh.states[to] != want.Key()) {
				t.Fatalf("%s -a%d-> %s, want %s (feasible: %v)", sh.states[s], a, sh.states[to], want.Key(), ok)
			}
		}
	}
}

func TestRegionModelSkipsCorruptKeys(t *testing.T) {
	space := config.Default()
	samples := map[string]float64{"garbage": 1.0, "1,2": 2.0}
	keys, cfgs := validSampleKeys(space, samples)
	sh := newRegionShape(space, keys, cfgs)
	if len(sh.states) != 0 || len(sh.rewards(samples, nil, 2.0)) != 0 {
		t.Fatalf("corrupt keys produced %d states", len(sh.states))
	}
	// An empty region has no structure to train over; retraining must fail
	// with the structure's error rather than sweep nothing.
	if sh.structure != nil || sh.structErr == nil {
		t.Fatalf("empty region: structure %v, err %v; want nil and an error", sh.structure, sh.structErr)
	}
}

func TestPolicyStoreMatch(t *testing.T) {
	pA := bowlPolicy(t, bowlTargets, "A")
	pB := bowlPolicy(t, []float64{100, 3, 15, 85}, "B")
	store := NewPolicyStore(pA, pB, nil)
	if store.Len() != 2 {
		t.Fatalf("store len %d", store.Len())
	}
	space := config.Default()
	cfg := space.DefaultConfig()
	// Measured RT equals policy A's prediction → A matches.
	got, err := store.Match(cfg, pA.PredictRT(cfg))
	if err != nil || got.Name() != "A" {
		t.Fatalf("Match = %v, %v", got, err)
	}
	got, err = store.Match(cfg, pB.PredictRT(cfg))
	if err != nil || got.Name() != "B" {
		t.Fatalf("Match = %v, %v", got, err)
	}
	if p := store.ByName("A"); p == nil || p.Name() != "A" {
		t.Fatal("ByName failed")
	}
	if store.ByName("Z") != nil {
		t.Fatal("ByName invented a policy")
	}
	empty := NewPolicyStore()
	if _, err := empty.Match(cfg, 1); err == nil {
		t.Fatal("empty store matched")
	}
}

func TestAgentOnRealSimulator(t *testing.T) {
	// Integration: the full agent tuning the discrete-time simulator.
	if testing.Short() {
		t.Skip("simulator integration is slow")
	}
	ctx := system.Context{
		Workload: tpcw.Workload{Mix: tpcw.Ordering, Clients: 300},
		Level:    vmenv.Level3,
	}
	sys, err := system.NewSimulated(system.SimulatedOptions{
		Context:        ctx,
		Seed:           77,
		SettleSeconds:  10,
		MeasureSeconds: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(sys, AgentOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanRT <= 0 {
			t.Fatalf("iteration %d: MeanRT %v", i, res.MeanRT)
		}
		if err := sys.Space().Validate(res.Config); err != nil {
			t.Fatalf("iteration %d: invalid config: %v", i, err)
		}
	}
}

func ExampleAgent() {
	sys := newBowlSystem([]float64{300, 11, 45, 55})
	agent, _ := NewAgent(sys, AgentOptions{Seed: 1})
	res, _ := agent.Step(context.Background())
	fmt.Println(res.Iteration)
	// Output: 1
}

func TestAgentDeterministicAcrossRuns(t *testing.T) {
	// The full agent trajectory must be reproducible from its seed (map
	// iteration order must not leak into learning).
	run := func() []string {
		sys := newBowlSystem(bowlTargets)
		agent, err := NewAgent(sys, AgentOptions{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for i := 0; i < 15; i++ {
			res, err := agent.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, res.Config.Key())
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverged at step %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestThroughputReward checks that the reward is the paper's response-time
// signal whatever the measured throughput: SLA − MeanRT, for RewardOf and
// for an agent's step alike.
func TestThroughputReward(t *testing.T) {
	o := DefaultOptions()
	m := system.Metrics{MeanRT: 0.5, Throughput: 80}
	if got := o.RewardOf(m); got != o.SLASeconds-0.5 {
		t.Fatalf("default reward %v", got)
	}
	m.Throughput = 8000
	if got := o.RewardOf(m); got != o.SLASeconds-0.5 {
		t.Fatalf("reward %v moved with throughput", got)
	}
	sys := newBowlSystem(bowlTargets)
	agent, err := NewAgent(sys, AgentOptions{Options: o, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := agent.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reward != o.SLASeconds-res.MeanRT {
		t.Fatalf("step reward %v, mean RT %v", res.Reward, res.MeanRT)
	}
}

// TestRewardOfGateHealthyRejections is the regression test for the
// double-penalization bug: an interval where the admission gate healthily
// turned every arrival away (zero completions, no errors) used to be scored
// on the producer's pessimistic jammed-system MeanRT stand-in, punishing
// every rejection as an SLA miss on top of the lost throughput. Consistent
// with resilience's validity rules (rejected ≠ error), such intervals now
// score the neutral SLA point.
func TestRewardOfGateHealthyRejections(t *testing.T) {
	o := DefaultOptions()

	// Gate-healthy full-rejection interval: the webtier reports a huge
	// stand-in MeanRT because nothing completed.
	m := system.Metrics{MeanRT: 270, Completed: 0, Rejected: 900}
	if got := o.RewardOf(m); got != 0 {
		t.Fatalf("gate-healthy rejection interval reward %v, want neutral 0", got)
	}

	// With errors present the stand-in is real distress: the fallback must
	// not mask a failing system.
	m.Errors = 50
	if got := o.RewardOf(m); got != o.SLASeconds-270 {
		t.Fatalf("erroring interval reward %v, want %v", got, o.SLASeconds-270)
	}

	// An interval with completions is scored on its measured MeanRT as
	// before, however many rejections rode along.
	m = system.Metrics{MeanRT: 0.8, Completed: 40, Rejected: 900}
	if got := o.RewardOf(m); got != o.SLASeconds-0.8 {
		t.Fatalf("mixed interval reward %v, want %v", got, o.SLASeconds-0.8)
	}
}

func TestRewardOfCapacityCost(t *testing.T) {
	o := DefaultOptions()
	o.CapacityCost = 0.25
	m := system.Metrics{MeanRT: 0.5, Completed: 100, CapacityUnits: 3}
	want := o.SLASeconds - 0.5 - 0.25*3
	if got := o.RewardOf(m); got != want {
		t.Fatalf("cost-priced reward %v, want %v", got, want)
	}
	// Untracked capacity costs nothing, so the paper's reward is unchanged.
	m.CapacityUnits = 0
	if got := o.RewardOf(m); got != o.SLASeconds-0.5 {
		t.Fatalf("untracked-capacity reward %v", got)
	}
	// Negative prices are rejected.
	o = DefaultOptions()
	o.CapacityCost = -1
	if err := o.Validate(); err == nil {
		t.Fatal("negative capacity cost accepted")
	}
}

func TestAgentViolationCountingAndReset(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	pA := bowlPolicy(t, bowlTargets, "ctx-A")
	pB := bowlPolicy(t, []float64{100, 3, 15, 85}, "ctx-B")
	store := NewPolicyStore(pA, pB)
	agent, err := NewAgent(sys, AgentOptions{Policy: pA, Store: store, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// Stabilize.
	for i := 0; i < 15; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// A drastic shift: violations must count up monotonically until the
	// switch, then reset to zero.
	sys.shift = 4
	prev := 0
	for i := 0; i < 12; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Switched {
			// The switch step reports the violation count that triggered it.
			if res.Violations < DefaultOptions().SwitchThreshold {
				t.Fatalf("switch triggered at %d violations", res.Violations)
			}
			return
		}
		if res.Violations < prev {
			t.Fatalf("violations went backwards: %d -> %d without a switch", prev, res.Violations)
		}
		prev = res.Violations
	}
	t.Fatal("no switch within 12 iterations of a drastic shift")
}

func TestAgentQTableGrowsOnlyWithVisits(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewAgent(sys, AgentOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// The rows the agent holds cover the visited region (visited states plus
	// their one-step frontier), far below the full lattice.
	rows, _ := agent.region.export()
	if n := len(rows); n == 0 || n > 11*(2*8+1)+11 {
		t.Fatalf("q-table has %d rows", n)
	}
}
