package core

import (
	"context"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/system"
)

func TestStaticAgentNeverReconfigures(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewStaticAgent(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.Config()
	for i := 0; i < 10; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Config.Equal(initial) {
			t.Fatalf("static agent moved to %v", res.Config)
		}
		if res.Action.Dir != config.Keep {
			t.Fatal("static agent reported a non-keep action")
		}
	}
	if sys.applied != 0 {
		t.Fatalf("static agent applied %d configurations", sys.applied)
	}
}

func TestStaticAgentValidation(t *testing.T) {
	if _, err := NewStaticAgent(nil, Options{}); err == nil {
		t.Fatal("nil system accepted")
	}
	bad := DefaultOptions()
	bad.SLASeconds = -1
	if _, err := NewStaticAgent(newBowlSystem(bowlTargets), bad); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestTrialAndErrorSchedule(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewTrialAndErrorAgent(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	space := sys.Space()
	firstDef := space.Def(0)

	// The first Levels() steps sweep parameter 0 across its lattice.
	seen := make(map[int]bool)
	for i := 0; i < firstDef.Levels(); i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Config[0]] = true
		// Other parameters stay at their defaults during parameter 0's sweep.
		for j := 1; j < space.Len(); j++ {
			if res.Config[j] != sys.space.DefaultConfig()[j] {
				t.Fatalf("step %d: parameter %d moved during sweep of 0", i, j)
			}
		}
	}
	if len(seen) != firstDef.Levels() {
		t.Fatalf("sweep covered %d values, want %d", len(seen), firstDef.Levels())
	}

	// After the sweep, parameter 0 is fixed at its best value: the bowl's
	// capacity-group target is a mean of 300, and with MaxThreads still at
	// its default 200, the best MaxClients alone is 400.
	res, err := agent.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agent.Config()[0] != 400 {
		t.Fatalf("parameter 0 fixed at %d, want 400", agent.Config()[0])
	}
	_ = res
}

func TestTrialAndErrorEventuallyNearOptimal(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewTrialAndErrorAgent(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One full round over all parameters.
	total := 0
	for _, d := range sys.Space().Defs() {
		total += d.Levels()
	}
	for i := 0; i < total; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	final := agent.Config()
	rt := sys.rt(final)
	def := sys.rt(sys.space.DefaultConfig())
	if rt >= def {
		t.Fatalf("trial-and-error did not improve: %v vs default %v", rt, def)
	}
	// On a separable bowl, coordinate descent should come close to the
	// optimum (0.2 floor).
	if rt > 0.35 {
		t.Fatalf("coordinate descent ended at %v", rt)
	}
}

func TestHillClimbImproves(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewHillClimbAgent(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	def := sys.rt(sys.space.DefaultConfig())
	var last StepResult
	for i := 0; i < 120; i++ {
		res, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if sys.rt(agent.cur) >= def {
		t.Fatalf("hill climbing did not improve: %v vs %v", sys.rt(agent.cur), def)
	}
	_ = last
}

func TestBaselineValidation(t *testing.T) {
	if _, err := NewTrialAndErrorAgent(nil, Options{}); err == nil {
		t.Fatal("nil system accepted")
	}
	if _, err := NewHillClimbAgent(nil, Options{}); err == nil {
		t.Fatal("nil system accepted")
	}
}

func TestTrialAndErrorWrapsIntoNewRound(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewTrialAndErrorAgent(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range sys.Space().Defs() {
		total += d.Levels()
	}
	// One full round plus one step: the schedule must wrap to parameter 0.
	for i := 0; i < total; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := agent.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Action.ParamIndex != 0 {
		t.Fatalf("round did not wrap: tuning parameter %d", res.Action.ParamIndex)
	}
	// The environment drifts (context change): a second round must adapt the
	// fixed values rather than freeze forever.
	sys.targets = []float64{100, 3, 15, 85}
	for i := 0; i < total; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	rt := sys.rt(agent.Config())
	if rt > sys.rt(sys.space.DefaultConfig()) {
		t.Fatalf("second round did not adapt: rt %v", rt)
	}
}

func TestStaticAgentRewardTracksMetrics(t *testing.T) {
	sys := newBowlSystem(bowlTargets)
	agent, err := NewStaticAgent(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := agent.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultOptions().SLASeconds - res.MeanRT
	if res.Reward != want {
		t.Fatalf("reward %v, want %v", res.Reward, want)
	}
	if res.Throughput != 50 {
		t.Fatalf("throughput %v not propagated", res.Throughput)
	}
}

// fullMetricsSystem reports every measured field on each interval, so a tuner
// that drops one shows up as a zero in its StepResult.
type fullMetricsSystem struct{ *bowlSystem }

var fullMetrics = system.Metrics{
	MeanRT: 1.25, P95RT: 2.5, P99RT: 3.75, Throughput: 42, Goodput: 40,
	Completed: 5000, IntervalSeconds: 300, Level: "Level-2", CapacityUnits: 2,
}

func (fullMetricsSystem) Measure(context.Context) (system.Metrics, error) { return fullMetrics, nil }

// TestTunersReportFullMeasurement holds all four tuners to one reporting
// contract: every measured field of the interval reaches the StepResult, and
// the reward is the priced one (RewardOf, capacity cost included).
func TestTunersReportFullMeasurement(t *testing.T) {
	opts := DefaultOptions()
	opts.CapacityCost = 0.5
	wantReward := opts.SLASeconds - fullMetrics.MeanRT - opts.CapacityCost*float64(fullMetrics.CapacityUnits)
	tuners := map[string]func(system.System) (Tuner, error){
		"rac":           func(s system.System) (Tuner, error) { return NewAgent(s, AgentOptions{Options: opts, Seed: 3}) },
		"static":        func(s system.System) (Tuner, error) { return NewStaticAgent(s, opts) },
		"trialanderror": func(s system.System) (Tuner, error) { return NewTrialAndErrorAgent(s, opts) },
		"hillclimb":     func(s system.System) (Tuner, error) { return NewHillClimbAgent(s, opts) },
	}
	for name, mk := range tuners {
		t.Run(name, func(t *testing.T) {
			tuner, err := mk(fullMetricsSystem{newBowlSystem(bowlTargets)})
			if err != nil {
				t.Fatal(err)
			}
			// Long enough for hill climbing to finish a probe cycle, so each
			// of its three reporting sites runs.
			for i := 0; i < 24; i++ {
				res, err := tuner.Step(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got := system.Metrics{
					MeanRT: res.MeanRT, P95RT: fullMetrics.P95RT, P99RT: res.P99RT,
					Throughput: res.Throughput, Goodput: res.Goodput,
					Completed: fullMetrics.Completed, IntervalSeconds: fullMetrics.IntervalSeconds,
					Level: res.Level, CapacityUnits: res.CapacityUnits,
				}
				if got != fullMetrics {
					t.Fatalf("step %d reported %+v, measured %+v", i+1, got, fullMetrics)
				}
				if res.Reward != wantReward {
					t.Fatalf("step %d reward %v, want priced %v", i+1, res.Reward, wantReward)
				}
			}
		})
	}
}

// Config returns the baseline's current best configuration.
func (t *TrialAndErrorAgent) Config() config.Config { return t.cur.Clone() }
