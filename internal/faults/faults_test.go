package faults

import (
	"context"
	"fmt"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// flatSystem is a minimal deterministic System + Adjustable: constant
// response time, so every perturbation is exactly attributable to the
// injected fault.
type flatSystem struct {
	space   *config.Space
	cfg     config.Config
	level   vmenv.Level
	work    tpcw.Workload
	applies int
}

func newFlatSystem() *flatSystem {
	space := config.Default()
	return &flatSystem{
		space: space,
		cfg:   space.DefaultConfig(),
		level: vmenv.Level1,
		work:  tpcw.Workload{Mix: tpcw.Shopping, Clients: 100},
	}
}

func (f *flatSystem) Space() *config.Space  { return f.space }
func (f *flatSystem) Config() config.Config { return f.cfg.Clone() }

func (f *flatSystem) Apply(ctx context.Context, cfg config.Config) error {
	if err := f.space.Validate(cfg); err != nil {
		return err
	}
	f.cfg = cfg.Clone()
	f.applies++
	return nil
}

func (f *flatSystem) Measure(ctx context.Context) (system.Metrics, error) {
	return system.Metrics{MeanRT: 1, P95RT: 2, Throughput: 100, Completed: 1000, IntervalSeconds: 300}, nil
}

func (f *flatSystem) SetWorkload(w tpcw.Workload) error   { f.work = w; return nil }
func (f *flatSystem) SetAppLevel(level vmenv.Level) error { f.level = level; return nil }
func (f *flatSystem) Workload() tpcw.Workload             { return f.work }
func (f *flatSystem) AppLevel() vmenv.Level               { return f.level }

var (
	_ system.System     = (*flatSystem)(nil)
	_ system.Adjustable = (*flatSystem)(nil)
)

func wrap(t *testing.T, inner system.System, sc Scenario, seed uint64) *System {
	t.Helper()
	s, err := New(inner, Options{Scenario: sc, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestApplyErrorIsTransient(t *testing.T) {
	inner := newFlatSystem()
	s := wrap(t, inner, Scenario{Rules: []Rule{{Kind: ApplyError, From: 1, To: 1}}}, 1)
	err := s.Apply(context.Background(), inner.space.DefaultConfig())
	if err == nil {
		t.Fatal("scripted apply-error did not fire")
	}
	if !system.IsTransient(err) {
		t.Fatalf("injected apply error not transient: %v", err)
	}
	if inner.applies != 0 {
		t.Fatal("failed apply reached the inner system")
	}
	// After the window the apply goes through.
	if _, err := s.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(context.Background(), inner.space.DefaultConfig()); err != nil {
		t.Fatalf("apply after fault window: %v", err)
	}
}

func TestApplyIgnoredShadowsConfig(t *testing.T) {
	inner := newFlatSystem()
	s := wrap(t, inner, Scenario{Rules: []Rule{{Kind: ApplyIgnored, From: 1, To: 1}}}, 1)
	want := inner.space.DefaultConfig().With(inner.space, config.MaxClients, 300)
	if err := s.Apply(context.Background(), want); err != nil {
		t.Fatalf("apply-ignored must report success: %v", err)
	}
	if inner.applies != 0 {
		t.Fatal("ignored apply reconfigured the inner system")
	}
	// The caller sees its requested config; the inner system kept the old one.
	if got, _ := s.Config().Get(s.Space(), config.MaxClients); got != 300 {
		t.Fatalf("Config() = %d, want the shadowed 300", got)
	}
	if got, _ := s.ActualConfig().Get(s.Space(), config.MaxClients); got == 300 {
		t.Fatal("ActualConfig() shows the ignored value")
	}
	// A later successful apply clears the shadow.
	if _, err := s.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	if inner.applies != 1 {
		t.Fatal("post-window apply did not reach the inner system")
	}
	if got, _ := s.ActualConfig().Get(s.Space(), config.MaxClients); got != 300 {
		t.Fatal("shadow not cleared after a real apply")
	}
}

func TestMeasureFaultsLoseIntervals(t *testing.T) {
	for _, kind := range []Kind{MeasureError, MeasureTimeout} {
		s := wrap(t, newFlatSystem(), Scenario{Rules: []Rule{{Kind: kind, From: 2, To: 2}}}, 1)
		if _, err := s.Measure(context.Background()); err != nil {
			t.Fatalf("%s: interval 1 failed: %v", kind, err)
		}
		if _, err := s.Measure(context.Background()); err == nil || !system.IsTransient(err) {
			t.Fatalf("%s: interval 2 err = %v, want transient", kind, err)
		}
		if _, err := s.Measure(context.Background()); err != nil {
			t.Fatalf("%s: interval 3 failed: %v", kind, err)
		}
		if s.Intervals() != 3 {
			t.Fatalf("%s: %d intervals elapsed, want 3 (lost intervals still count)", kind, s.Intervals())
		}
	}
}

func TestLatencySpikeAndOutlierScaleRT(t *testing.T) {
	s := wrap(t, newFlatSystem(), Scenario{Rules: []Rule{
		{Kind: LatencySpike, From: 1, To: 1, Magnitude: 6},
		{Kind: MeasureOutlier, From: 2, To: 2},
	}}, 1)
	m, err := s.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanRT != 6 || m.P95RT != 12 {
		t.Fatalf("spike x6: rt=%v p95=%v", m.MeanRT, m.P95RT)
	}
	m, err = s.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanRT != 10 { // default outlier magnitude
		t.Fatalf("outlier: rt=%v, want 10", m.MeanRT)
	}
	m, _ = s.Measure(context.Background())
	if m.MeanRT != 1 {
		t.Fatalf("after windows: rt=%v, want clean 1", m.MeanRT)
	}
}

func TestErrorBurstMovesCompletionsToErrors(t *testing.T) {
	s := wrap(t, newFlatSystem(), Scenario{Rules: []Rule{
		{Kind: ErrorBurst, From: 1, To: 1, Magnitude: 0.7},
	}}, 1)
	m, err := s.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 700 || m.Completed != 300 {
		t.Fatalf("burst 0.7: errors=%d completed=%d", m.Errors, m.Completed)
	}
	if m.Throughput <= 29 || m.Throughput >= 31 {
		t.Fatalf("burst throughput %v, want ~30", m.Throughput)
	}
}

func TestMeasureNoisePerturbsDeterministically(t *testing.T) {
	sc := Scenario{Rules: []Rule{{Kind: MeasureNoise, From: 1}}}
	run := func() []float64 {
		s := wrap(t, newFlatSystem(), sc, 9)
		var rts []float64
		for i := 0; i < 5; i++ {
			m, err := s.Measure(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rts = append(rts, m.MeanRT)
		}
		return rts
	}
	a, b := run(), run()
	varies := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise not reproducible: %v vs %v", a, b)
		}
		if a[i] != 1 {
			varies = true
		}
	}
	if !varies {
		t.Fatal("noise rule never perturbed the measurement")
	}
}

func TestCapacityDropDegradesAndRestores(t *testing.T) {
	inner := newFlatSystem()
	s := wrap(t, inner, Scenario{Rules: []Rule{{Kind: CapacityDrop, From: 2, To: 3}}}, 1)
	if _, err := s.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if inner.level != vmenv.Level1 {
		t.Fatal("capacity dropped before its window")
	}
	s.Measure(context.Background())
	if inner.level != vmenv.Level2 {
		t.Fatalf("interval 2: level %v, want degraded Level-2", inner.level)
	}
	s.Measure(context.Background())
	if inner.level != vmenv.Level2 {
		t.Fatalf("interval 3: level %v, want still degraded", inner.level)
	}
	s.Measure(context.Background())
	if inner.level != vmenv.Level1 {
		t.Fatalf("interval 4: level %v, want restored Level-1", inner.level)
	}
	// Two transitions in the log: drop and restore.
	drops := 0
	for _, inj := range s.Injected() {
		if inj.Kind == CapacityDrop {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("%d capacity-drop log entries, want 2 (enter + restore)", drops)
	}
}

func TestCapacityDropHoldsDriverReallocation(t *testing.T) {
	inner := newFlatSystem()
	s := wrap(t, inner, Scenario{Rules: []Rule{{Kind: CapacityDrop, From: 1, To: 2}}}, 1)
	s.Measure(context.Background())
	if inner.level != vmenv.Level2 {
		t.Fatalf("level %v, want degraded", inner.level)
	}
	// The driver reallocates mid-drop: the fault keeps squatting, the new
	// level becomes the restore target.
	if err := s.SetAppLevel(vmenv.Level3); err != nil {
		t.Fatal(err)
	}
	if inner.level != vmenv.Level2 {
		t.Fatal("driver reallocation overrode an active capacity fault")
	}
	s.Measure(context.Background())
	s.Measure(context.Background())
	if inner.level != vmenv.Level3 {
		t.Fatalf("restored %v, want the driver's Level-3", inner.level)
	}
}

func TestProbabilisticRuleFiresSometimes(t *testing.T) {
	s := wrap(t, newFlatSystem(), Scenario{Rules: []Rule{
		{Kind: LatencySpike, Probability: 0.5, Magnitude: 2},
	}}, 3)
	fired, clean := 0, 0
	for i := 0; i < 200; i++ {
		m, err := s.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if m.MeanRT > 1 {
			fired++
		} else {
			clean++
		}
	}
	if fired < 60 || clean < 60 {
		t.Fatalf("p=0.5 rule fired %d/200", fired)
	}
	if len(s.Injected()) != fired {
		t.Fatalf("log has %d entries, %d faults fired", len(s.Injected()), fired)
	}
}

func TestInjectionsReachTelemetryAndTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTrace(16)
	inner := newFlatSystem()
	s, err := New(inner, Options{
		Scenario:  Scenario{Rules: []Rule{{Kind: LatencySpike, From: 1, To: 2}}},
		Telemetry: reg,
		Trace:     trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Measure(context.Background())
	s.Measure(context.Background())
	snap := reg.Snapshot()
	found := false
	for _, m := range snap.Counters {
		if m.Name == "faults_injected_total" && m.Labels["kind"] == string(LatencySpike) {
			found = true
			if m.Value != 2 {
				t.Fatalf("counter = %v, want 2", m.Value)
			}
		}
	}
	if !found {
		t.Fatal("faults_injected_total not in telemetry snapshot")
	}
	evs := trace.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("%d trace events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Kind != telemetry.KindFault || ev.Fault != string(LatencySpike) {
			t.Fatalf("trace event %+v", ev)
		}
	}
}

func TestNonAdjustableInnerSkipsCapacityRules(t *testing.T) {
	inner := newFlatSystem()
	// Hide the Adjustable half behind a plain System.
	type bare struct{ system.System }
	s := wrap(t, bare{inner}, Scenario{Rules: []Rule{{Kind: CapacityDrop, From: 1}}}, 1)
	if _, err := s.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if inner.level != vmenv.Level1 {
		t.Fatal("capacity rule reached a non-adjustable system")
	}
	if err := s.SetAppLevel(vmenv.Level2); err == nil {
		t.Fatal("SetAppLevel on a non-adjustable inner accepted")
	}
	if err := s.SetWorkload(tpcw.Workload{Mix: tpcw.Ordering, Clients: 5}); err == nil {
		t.Fatal("SetWorkload on a non-adjustable inner accepted")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil system accepted")
	}
	if _, err := New(newFlatSystem(), Options{Scenario: Scenario{Rules: []Rule{{Kind: "nope"}}}}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func ExampleSystem() {
	inner := newFlatSystem()
	s, _ := New(inner, Options{Scenario: Scenario{
		Rules: []Rule{{Kind: LatencySpike, From: 1, To: 1, Magnitude: 3}},
	}})
	m, _ := s.Measure(context.Background())
	fmt.Printf("rt=%.0f injections=%d\n", m.MeanRT, len(s.Injected()))
	// Output: rt=3 injections=1
}

// Intervals returns how many measurement intervals have elapsed, counting
// intervals lost to injected measurement faults.
func (s *System) Intervals() int { return s.intervals }
