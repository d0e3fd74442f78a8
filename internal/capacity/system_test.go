package capacity

import (
	"context"
	"reflect"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// newSim builds a small simulated backend for decorator tests: short
// measurement windows, SLO tracked at 2 s.
func newSim(t *testing.T, space *config.Space, clients int) *system.Simulated {
	t.Helper()
	sim, err := system.NewSimulated(system.SimulatedOptions{
		Space: space,
		Context: system.Context{
			Workload: tpcw.Workload{Mix: tpcw.Shopping, Clients: clients},
			Level:    vmenv.Level1,
		},
		Seed:           7,
		SettleSeconds:  5,
		MeasureSeconds: 30,
		SLOSeconds:     2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestWrapAnnotatesMetrics(t *testing.T) {
	sys, err := Wrap(newSim(t, nil, 200), Options{Initial: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sys.AppLevel() != vmenv.Level2 {
		t.Fatalf("initial level %s, want Level-2", sys.AppLevel())
	}
	m, err := sys.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Level != "Level-2" || m.CapacityUnits != 2 {
		t.Fatalf("metrics level=%q units=%d, want Level-2/2", m.Level, m.CapacityUnits)
	}
	if m.Offered == 0 {
		t.Fatal("simulated backend reported no arrivals")
	}
	if sys.TotalCost() != 2 {
		t.Fatalf("one interval at ordinal 2 cost %d", sys.TotalCost())
	}
}

func TestLatticeCapacityMoveScales(t *testing.T) {
	space := config.WithCapacity()
	sys, err := Wrap(newSim(t, space, 200), Options{Initial: 3, ProvisionDelay: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The agent moves CapacityLevel down the lattice: 3 -> 2.
	cfg := sys.Config().With(space, config.CapacityLevel, 2)
	if err := sys.Apply(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if sys.AppLevel() != vmenv.Level1 {
		t.Fatal("scale-down applied before the interval boundary")
	}
	m, err := sys.Measure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Level != "Level-2" || sys.AppLevel() != vmenv.Level2 {
		t.Fatalf("after measure: metrics level %q, system level %s, want Level-2", m.Level, sys.AppLevel())
	}
	if got := sys.Inner().AppLevel(); got != vmenv.Level2 {
		t.Fatalf("inner backend at %s, want Level-2", got)
	}
}

func TestFastPathScalesUpUnderSaturation(t *testing.T) {
	// A Level-3 VM under a heavy closed-loop population saturates; the fast
	// path must climb without any agent involvement.
	trace := telemetry.NewTrace(64)
	reg := telemetry.NewRegistry()
	var scales [][2]int
	sys, err := Wrap(newSim(t, nil, 1400), Options{
		Initial:   1,
		FastPath:  true,
		Analyzer:  Config{Window: 2, SLASeconds: 2.0, Cooldown: 0},
		Telemetry: reg,
		Trace:     trace,
		OnScale:   func(o, n int) { scales = append(scales, [2]int{o, n}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8 && sys.Ordinal() < 2; i++ {
		if _, err := sys.Measure(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Ordinal() < 2 {
		t.Fatalf("fast path never scaled up from ordinal 1 (holds=%d)", sys.Holds())
	}
	if sys.ScaleUps() == 0 {
		t.Fatal("scale-up counter never moved")
	}
	if len(scales) == 0 || scales[0][1] != scales[0][0]+1 {
		t.Fatalf("OnScale calls %v", scales)
	}
	var capEvents int
	for _, ev := range trace.Snapshot() {
		if ev.Kind == telemetry.KindCapacity {
			capEvents++
			if ev.Level == "" {
				t.Fatal("capacity event without level")
			}
		}
	}
	if capEvents == 0 {
		t.Fatal("no capacity trace events")
	}
}

func TestFastPathDisabledHolds(t *testing.T) {
	sys, err := Wrap(newSim(t, nil, 1400), Options{
		Initial:  1,
		Analyzer: Config{Window: 2, SLASeconds: 2.0, Cooldown: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := sys.Measure(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Ordinal() != 1 {
		t.Fatalf("disabled fast path still scaled to %d", sys.Ordinal())
	}
	if sys.Holds() != 4 {
		t.Fatalf("holds %d, want 4", sys.Holds())
	}
}

func TestApplyUnchangedLatticeKeepsFastPathScale(t *testing.T) {
	// The agent re-applies its whole configuration every Step, Apply-first.
	// An unchanged CapacityLevel must not cancel the fast path's pending
	// scale request before Measure can mature it.
	space := config.WithCapacity()
	sys, err := Wrap(newSim(t, space, 1400), Options{
		Initial:        1,
		ProvisionDelay: 1,
		FastPath:       true,
		Analyzer:       Config{Window: 2, SLASeconds: 2.0, Cooldown: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := sys.Config().With(space, config.CapacityLevel, 1)
	for i := 0; i < 8 && sys.Ordinal() < 2; i++ {
		if err := sys.Apply(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Measure(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Ordinal() < 2 {
		t.Fatalf("re-applied unchanged CapacityLevel cancelled the fast-path scale (holds=%d)", sys.Holds())
	}
}

func TestDriverOverridePreservesAccounting(t *testing.T) {
	sys, err := Wrap(newSim(t, nil, 200), Options{Initial: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Measure(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cost := sys.TotalCost()
	if cost == 0 {
		t.Fatal("no capacity cost accrued")
	}
	if err := sys.SetAppLevel(vmenv.Level1); err != nil {
		t.Fatal(err)
	}
	if sys.TotalCost() != cost {
		t.Fatalf("driver override reset the capacity bill: %d -> %d", cost, sys.TotalCost())
	}
}

func TestSnapshotRoundTripsAccounting(t *testing.T) {
	sys, err := Wrap(newSim(t, nil, 200), Options{Initial: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Measure(ctx); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Wrap(newSim(t, nil, 200), Options{Initial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Ordinal() != sys.Ordinal() {
		t.Fatalf("restored ordinal %d, want %d", restored.Ordinal(), sys.Ordinal())
	}
	if restored.TotalCost() != sys.TotalCost() || restored.ScaleUps() != sys.ScaleUps() ||
		restored.ScaleDowns() != sys.ScaleDowns() || restored.Holds() != sys.Holds() {
		t.Fatalf("restored accounting cost=%d ups=%d downs=%d holds=%d, want cost=%d ups=%d downs=%d holds=%d",
			restored.TotalCost(), restored.ScaleUps(), restored.ScaleDowns(), restored.Holds(),
			sys.TotalCost(), sys.ScaleUps(), sys.ScaleDowns(), sys.Holds())
	}
}

func TestDriverSetAppLevelOverridesScaler(t *testing.T) {
	sys, err := Wrap(newSim(t, nil, 200), Options{Initial: 1, ProvisionDelay: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetAppLevel(vmenv.Level1); err != nil {
		t.Fatal(err)
	}
	if sys.Ordinal() != 3 || sys.Pending() != 0 {
		t.Fatalf("after driver override: ordinal %d pending %d", sys.Ordinal(), sys.Pending())
	}
	if sys.Inner().AppLevel() != vmenv.Level1 {
		t.Fatal("inner backend not reallocated")
	}
	if err := sys.SetAppLevel(vmenv.Level{Name: "Level-9"}); err == nil {
		t.Fatal("unknown level accepted")
	}
}

// TestDecoratorDeterminism pins that a fast-path run is a pure function of
// the seed: two identical drives produce byte-identical metric and scale
// sequences.
func TestDecoratorDeterminism(t *testing.T) {
	run := func() ([]system.Metrics, int, int) {
		sys, err := Wrap(newSim(t, nil, 1400), Options{
			Initial:        1,
			ProvisionDelay: 1,
			FastPath:       true,
			Analyzer:       Config{Window: 2, SLASeconds: 2.0, Cooldown: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		var ms []system.Metrics
		for i := 0; i < 6; i++ {
			m, err := sys.Measure(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		return ms, sys.ScaleUps(), sys.TotalCost()
	}
	m1, u1, c1 := run()
	m2, u2, c2 := run()
	if !reflect.DeepEqual(m1, m2) || u1 != u2 || c1 != c2 {
		t.Fatalf("runs diverged: ups %d vs %d, cost %d vs %d", u1, u2, c1, c2)
	}
}
