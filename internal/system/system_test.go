package system

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

func TestTable2Contexts(t *testing.T) {
	ctxs := Table2()
	if len(ctxs) != 6 {
		t.Fatalf("Table 2 has %d contexts, want 6", len(ctxs))
	}
	// Paper Table 2 rows.
	want := []struct {
		name  string
		mix   tpcw.Mix
		level vmenv.Level
	}{
		{"context-1", tpcw.Shopping, vmenv.Level1},
		{"context-2", tpcw.Ordering, vmenv.Level1},
		{"context-3", tpcw.Ordering, vmenv.Level3},
		{"context-4", tpcw.Shopping, vmenv.Level2},
		{"context-5", tpcw.Ordering, vmenv.Level2},
		{"context-6", tpcw.Browsing, vmenv.Level1},
	}
	for i, w := range want {
		c := ctxs[i]
		if c.Name != w.name || c.Workload.Mix != w.mix || c.Level != w.level {
			t.Errorf("context %d = %+v, want %+v", i, c, w)
		}
		if c.Workload.Clients != DefaultClients {
			t.Errorf("%s population %d", c.Name, c.Workload.Clients)
		}
	}
}

func TestContextByName(t *testing.T) {
	c, err := ContextByName("context-3")
	if err != nil || c.Level != vmenv.Level3 {
		t.Fatalf("ContextByName: %+v, %v", c, err)
	}
	if _, err := ContextByName("context-99"); err == nil {
		t.Fatal("unknown context found")
	}
}

func TestContextString(t *testing.T) {
	c, _ := ContextByName("context-1")
	s := c.String()
	if !strings.Contains(s, "context-1") || !strings.Contains(s, "shopping") {
		t.Fatalf("String() = %q", s)
	}
	anon := Context{Workload: tpcw.Workload{Mix: tpcw.Ordering, Clients: 5}, Level: vmenv.Level2}
	if strings.Contains(anon.String(), "(") {
		t.Fatalf("anonymous context rendered with name: %q", anon.String())
	}
}

func newSim(t *testing.T, ctx Context, seed uint64) *Simulated {
	t.Helper()
	sys, err := NewSimulated(SimulatedOptions{
		Context:        ctx,
		Seed:           seed,
		SettleSeconds:  5,
		MeasureSeconds: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func smallContext(mix tpcw.Mix, level vmenv.Level) Context {
	return Context{
		Name:     "test",
		Workload: tpcw.Workload{Mix: mix, Clients: 120},
		Level:    level,
	}
}

func TestSimulatedApplyMeasure(t *testing.T) {
	sys := newSim(t, smallContext(tpcw.Shopping, vmenv.Level1), 1)
	if sys.Space().Len() != 8 {
		t.Fatalf("space has %d params", sys.Space().Len())
	}
	cfg := sys.Config()
	if err := sys.Space().Validate(cfg); err != nil {
		t.Fatal(err)
	}
	m, err := sys.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanRT <= 0 || m.Completed == 0 {
		t.Fatalf("metrics %+v", m)
	}
	if m.IntervalSeconds < 34.9 || m.IntervalSeconds > 35.1 {
		t.Fatalf("interval %v, want ~settle+measure = 35", m.IntervalSeconds)
	}

	next := cfg.With(sys.Space(), config.MaxClients, 300)
	if err := sys.Apply(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.Config().Get(sys.Space(), config.MaxClients); got != 300 {
		t.Fatalf("config not applied: %d", got)
	}
}

func TestSimulatedApplyValidates(t *testing.T) {
	sys := newSim(t, smallContext(tpcw.Shopping, vmenv.Level1), 1)
	if err := sys.Apply(context.Background(), nil); err == nil {
		t.Fatal("nil config accepted")
	}
	bad := sys.Config()
	bad[0] = 47
	if err := sys.Apply(context.Background(), bad); err == nil {
		t.Fatal("off-lattice config accepted")
	}
}

func TestSimulatedConfigIsCopy(t *testing.T) {
	sys := newSim(t, smallContext(tpcw.Shopping, vmenv.Level1), 1)
	cfg := sys.Config()
	cfg[0] = 600
	if got, _ := sys.Config().Get(sys.Space(), config.MaxClients); got == 600 {
		t.Fatal("Config() exposes internal state")
	}
}

func TestSimulatedContextControls(t *testing.T) {
	sys := newSim(t, smallContext(tpcw.Shopping, vmenv.Level1), 3)
	ctx3, _ := ContextByName("context-3")
	ctx3.Workload.Clients = 100
	if err := ApplyContext(sys, ctx3); err != nil {
		t.Fatal(err)
	}
	if sys.Workload().Mix != tpcw.Ordering || sys.AppLevel() != vmenv.Level3 {
		t.Fatalf("context not applied: %v %v", sys.Workload(), sys.AppLevel())
	}
	m, err := sys.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed == 0 {
		t.Fatal("no traffic after context change")
	}
}

func TestSimulatedDeterminism(t *testing.T) {
	run := func() Metrics {
		sys := newSim(t, smallContext(tpcw.Ordering, vmenv.Level2), 42)
		m, err := sys.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if run() != run() {
		t.Fatal("same seed differs")
	}
}

func TestAnalyticSystem(t *testing.T) {
	sys, err := NewAnalytic(AnalyticOptions{
		Context: smallContext(tpcw.Ordering, vmenv.Level3),
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := sys.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := sys.Measure(context.Background())
	if m1.MeanRT != m2.MeanRT {
		t.Fatal("noise-free analytic system not deterministic")
	}
	if m1.MeanRT <= 0 || m1.Throughput <= 0 {
		t.Fatalf("metrics %+v", m1)
	}

	// Config changes move the measurement.
	cfg := sys.Config().With(sys.Space(), config.SessionTimeout, 3)
	if err := sys.Apply(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	m3, _ := sys.Measure(context.Background())
	if m3.MeanRT == m1.MeanRT {
		t.Fatal("reconfiguration had no analytic effect")
	}
}

func TestAnalyticNoise(t *testing.T) {
	sys, err := NewAnalytic(AnalyticOptions{
		Context:    smallContext(tpcw.Ordering, vmenv.Level1),
		NoiseSigma: 0.2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := sys.Measure(context.Background())
	m2, _ := sys.Measure(context.Background())
	if m1.MeanRT == m2.MeanRT {
		t.Fatal("noisy measurements identical")
	}
}

func TestAnalyticValidation(t *testing.T) {
	sys, err := NewAnalytic(AnalyticOptions{Context: smallContext(tpcw.Shopping, vmenv.Level1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Apply(context.Background(), nil); err == nil {
		t.Fatal("nil config accepted")
	}
	if err := sys.SetWorkload(tpcw.Workload{}); err == nil {
		t.Fatal("bad workload accepted")
	}
	if err := sys.SetAppLevel(vmenv.Level{}); err == nil {
		t.Fatal("bad level accepted")
	}
}

// TestAnalyticImportRefusesBadWorkload: a state blob whose client population
// SetWorkload would refuse is refused whole, so the system keeps measuring
// what it measured before — a restore that fails here falls back to a cold
// start instead of a tenant whose every Measure fails.
func TestAnalyticImportRefusesBadWorkload(t *testing.T) {
	sys, err := NewAnalytic(AnalyticOptions{Context: smallContext(tpcw.Shopping, vmenv.Level1), NoiseSigma: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	good, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, clients := range []int{0, -3} {
		var st analyticState
		if err := json.Unmarshal(good, &st); err != nil {
			t.Fatal(err)
		}
		st.Clients, st.Level, st.Config = clients, vmenv.Level3.Name, sys.Space().DefaultConfig()
		st.Config[0] += sys.Space().Def(0).Step
		bad, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.ImportState(bad); err == nil || !strings.Contains(err.Error(), "client population") {
			t.Fatalf("clients %d: import returned %v, want the workload's error", clients, err)
		}
		if now, err := sys.ExportState(); err != nil || string(now) != string(good) {
			t.Fatalf("clients %d: a refused import changed the state to %s (%v), want %s", clients, now, err, good)
		}
		if _, err := sys.Measure(context.Background()); err != nil {
			t.Fatalf("clients %d: measure after a refused import: %v", clients, err)
		}
		if err := sys.ImportState(good); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAnalyticAgreesWithContextOrdering(t *testing.T) {
	// L3 must look worse than L1 through the Analytic System interface too.
	rt := func(level vmenv.Level) float64 {
		sys, err := NewAnalytic(AnalyticOptions{Context: Context{
			Workload: tpcw.Workload{Mix: tpcw.Ordering, Clients: 800},
			Level:    level,
		}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m.MeanRT
	}
	if rt(vmenv.Level3) <= rt(vmenv.Level1) {
		t.Fatal("analytic level ordering wrong")
	}
}
