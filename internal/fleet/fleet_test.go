package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rac-project/rac/internal/capacity"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/vmenv"
)

// analyticSpec is the cheap deterministic tenant used throughout: the MVA
// surface with measurement noise, so every step consumes the tenant's RNG
// streams and restore bugs cannot hide.
func analyticSpec(name string) TenantSpec {
	return TenantSpec{Name: name, Backend: "analytic", Context: "context-1", NoiseSigma: 0.15}
}

// fastTrain is a reduced policy-training schedule so tests that exercise the
// registry do not pay the full paper initialization on every run.
func fastTrain() *core.InitOptions {
	batch := mdp.DefaultBatchConfig()
	batch.MaxSweeps = 30
	return &core.InitOptions{CoarseLevels: 2, Batch: batch}
}

// exportAgent serializes one tenant's agent state for comparisons.
func exportAgent(t *testing.T, tn *Tenant) []byte {
	t.Helper()
	st, err := tn.Agent().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFleetLifecycle(t *testing.T) {
	f, err := New(Options{Seed: 42, Procs: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Admit(analyticSpec("shop-a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Admit(analyticSpec("shop-b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(analyticSpec("shop-a")); err == nil {
		t.Fatal("duplicate admission accepted")
	}
	if a.State() != StateRunning || b.State() != StateRunning {
		t.Fatalf("admitted states %s/%s, want running", a.State(), b.State())
	}

	if _, err := f.Run(4); err != nil {
		t.Fatal(err)
	}
	if a.Interval() != 4 || b.Interval() != 4 {
		t.Fatalf("intervals %d/%d after 4 rounds, want 4/4", a.Interval(), b.Interval())
	}

	// Pause stops stepping but keeps state; resume picks it back up.
	if err := f.Pause("shop-b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Pause("shop-b"); err == nil {
		t.Fatal("pausing a paused tenant accepted")
	}
	if _, err := f.Run(2); err != nil {
		t.Fatal(err)
	}
	if a.Interval() != 6 || b.Interval() != 4 {
		t.Fatalf("intervals %d/%d with shop-b paused, want 6/4", a.Interval(), b.Interval())
	}
	if err := f.Resume("shop-b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Resume("shop-a"); err == nil {
		t.Fatal("resuming a running tenant accepted")
	}

	// Drain: the next round writes a final checkpoint and stops the tenant.
	if err := f.Drain("shop-b"); err != nil {
		t.Fatal(err)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateStopped {
		t.Fatalf("drained tenant is %s, want stopped", b.State())
	}
	if ck, _, err := f.ckpts.Latest("shop-b"); err != nil || ck == nil || ck.Interval != 4 {
		t.Fatalf("final checkpoint = (%+v, %v), want interval 4", ck, err)
	}
	if err := f.Drain("shop-b"); err == nil {
		t.Fatal("draining a stopped tenant accepted")
	}
	if err := f.Pause("no-such"); err == nil {
		t.Fatal("unknown tenant accepted")
	}

	// Shutdown drains the rest with final checkpoints.
	if err := f.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a.State() != StateStopped {
		t.Fatalf("after shutdown shop-a is %s", a.State())
	}
	if f.Active() != 0 {
		t.Fatalf("Active = %d after shutdown", f.Active())
	}
	if ck, _, err := f.ckpts.Latest("shop-a"); err != nil || ck == nil {
		t.Fatalf("shutdown checkpoint missing: %v", err)
	}
}

func TestFleetPeriodicCheckpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	f, err := New(Options{Seed: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 5, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(analyticSpec("shop-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(12); err != nil {
		t.Fatal(err)
	}
	ck, _, err := f.ckpts.Latest("shop-a")
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Interval != 10 {
		t.Fatalf("latest periodic checkpoint %+v, want interval 10", ck)
	}
	if n := reg.Counter("rac_fleet_checkpoints_total", "", nil).Value(); n != 2 {
		t.Fatalf("rac_fleet_checkpoints_total = %d, want 2 (intervals 5 and 10)", n)
	}
}

func TestFleetWarmStartFromRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	f, err := New(Options{Seed: 9, RegistryDir: t.TempDir(), Telemetry: reg, TrainInit: fastTrain()})
	if err != nil {
		t.Fatal(err)
	}

	// First tenant trains and publishes the context policy — initialization,
	// not a warm start.
	a, err := f.Admit(TenantSpec{Name: "trainer", Backend: "analytic", TrainPolicy: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status().WarmStarted {
		t.Fatal("training tenant reported as warm-started")
	}
	key := a.Status().ContextKey
	if keys := f.registry.Keys(); len(keys) != 1 {
		t.Fatalf("registry keys = %v, want the trained context", keys)
	}
	if got := reg.Counter("rac_fleet_warm_starts_total", "", nil).Value(); got != 0 {
		t.Fatalf("warm_starts after training = %d, want 0", got)
	}

	// Second tenant in the same context warm-starts from it.
	b, err := f.Admit(analyticSpec("follower"))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Status().WarmStarted {
		t.Fatal("context-matched tenant did not warm-start")
	}
	if b.Agent().Policy() == nil || b.Agent().Policy().Name() != key {
		t.Fatalf("warm-started tenant policy = %v, want %q", b.Agent().Policy(), key)
	}
	if got := reg.Counter("rac_fleet_warm_starts_total", "", nil).Value(); got != 1 {
		t.Fatalf("warm_starts = %d, want 1", got)
	}

	// Opt-out tenants cold-start even when a policy exists.
	c, err := f.Admit(TenantSpec{Name: "loner", Backend: "analytic", NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Status().WarmStarted || c.Agent().Policy() != nil {
		t.Fatal("NoWarmStart tenant received a policy")
	}
	if got := reg.Counter("rac_fleet_warm_starts_total", "", nil).Value(); got != 1 {
		t.Fatalf("warm_starts after opt-out = %d, want 1", got)
	}
}

func TestFleetKillRestartMatchesUninterruptedRun(t *testing.T) {
	const (
		totalRounds = 20
		killAfter   = 12 // latest surviving checkpoint is interval 10
		cadence     = 5
	)
	specs := []TenantSpec{analyticSpec("shop-a"), analyticSpec("shop-b")}

	// Reference: one uninterrupted fleet, no checkpointing.
	ref, err := New(Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, err := ref.Admit(sp); err != nil {
			t.Fatal(err)
		}
	}
	refLogs := map[string][]stepRecord{}
	runRecorded(t, ref, totalRounds, refLogs)

	// Interrupted: run to the kill point and abandon the fleet without any
	// drain — exactly what SIGKILL leaves behind.
	dir := t.TempDir()
	f1, err := New(Options{Seed: 77, CheckpointDir: dir, CheckpointEvery: cadence})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, err := f1.Admit(sp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f1.Run(killAfter); err != nil {
		t.Fatal(err)
	}

	// Restart: a brand-new fleet over the same checkpoint directory restores
	// each tenant at interval 10 and replays the lost rounds.
	reg := telemetry.NewRegistry()
	f2, err := New(Options{Seed: 77, CheckpointDir: dir, CheckpointEvery: cadence, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		tn, err := f2.Admit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !tn.Status().Restored || tn.Interval() != 10 {
			t.Fatalf("tenant %s restored=%v interval=%d, want restored at 10",
				sp.Name, tn.Status().Restored, tn.Interval())
		}
	}
	if got := reg.Counter("rac_fleet_restores_total", "", nil).Value(); got != 2 {
		t.Fatalf("rac_fleet_restores_total = %d, want 2", got)
	}
	gotLogs := map[string][]stepRecord{}
	runRecorded(t, f2, totalRounds-10, gotLogs)

	// The resumed tenants must land on byte-identical learned state.
	for _, sp := range specs {
		want := exportAgent(t, ref.Tenant(sp.Name))
		got := exportAgent(t, f2.Tenant(sp.Name))
		if !bytes.Equal(want, got) {
			t.Errorf("tenant %s: resumed state differs from the uninterrupted run", sp.Name)
		}
		gotLog := gotLogs[sp.Name]
		replay := refLogs[sp.Name][10:]
		if len(gotLog) != len(replay) {
			t.Fatalf("tenant %s: %d replayed records, want %d", sp.Name, len(gotLog), len(replay))
		}
		for i := range replay {
			if gotLog[i] != replay[i] {
				t.Errorf("tenant %s: replayed step %d = %+v, want %+v", sp.Name, i, gotLog[i], replay[i])
			}
		}
	}
}

func TestFleetRestartFallsBackPastCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f1, err := New(Options{Seed: 5, CheckpointDir: dir, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Admit(analyticSpec("shop-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Run(12); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot (interval 10) in place.
	_, path, err := f1.ckpts.Latest("shop-a")
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("RACFLTCK totally not a checkpoint")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	f2, err := New(Options{Seed: 5, CheckpointDir: dir, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := f2.Admit(analyticSpec("shop-a"))
	if err != nil {
		t.Fatal(err)
	}
	if !tn.Status().Restored || tn.Interval() != 5 {
		t.Fatalf("restored=%v interval=%d, want fallback restore at 5",
			tn.Status().Restored, tn.Interval())
	}
}

func TestFleetAdminHTTP(t *testing.T) {
	f, err := New(Options{Seed: 3, CheckpointDir: t.TempDir(), RegistryDir: t.TempDir(), TrainInit: fastTrain()})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := f.Admit(TenantSpec{Name: "shop-a", Backend: "analytic", TrainPolicy: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(analyticSpec("shop-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(3); err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	do := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}

	rec := do("GET", "/admin/v1/fleet")
	if rec.Code != 200 {
		t.Fatalf("list: %d %s", rec.Code, rec.Body)
	}
	var view FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Rounds != 3 || len(view.Tenants) != 2 || view.Active != 2 {
		t.Fatalf("list view = %+v", view)
	}
	if len(view.Policies) != 1 {
		t.Fatalf("list view policies = %v, want the trained context", view.Policies)
	}

	rec = do("GET", "/admin/v1/tenants/shop-b")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"state":"running"`) {
		t.Fatalf("status: %d %s", rec.Code, rec.Body)
	}
	if rec := do("GET", "/admin/v1/tenants/ghost"); rec.Code != 404 {
		t.Fatalf("unknown tenant status: %d", rec.Code)
	}

	if rec := do("POST", "/admin/v1/tenants/shop-b/pause"); rec.Code != 200 {
		t.Fatalf("pause: %d %s", rec.Code, rec.Body)
	}
	if rec := do("POST", "/admin/v1/tenants/shop-b/pause"); rec.Code != 409 {
		t.Fatalf("double pause: %d, want 409", rec.Code)
	}
	if rec := do("POST", "/admin/v1/tenants/shop-b/resume"); rec.Code != 200 {
		t.Fatalf("resume: %d %s", rec.Code, rec.Body)
	}

	if rec := do("POST", "/admin/v1/tenants/shop-a/checkpoint"); rec.Code != 200 {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
	}
	if ck, _, err := f.ckpts.Latest("shop-a"); err != nil || ck == nil {
		t.Fatalf("manual checkpoint not on disk: %v", err)
	}

	// Force-switch shop-b onto the policy shop-a trained.
	key := trainer.Status().ContextKey
	if rec := do("POST", "/admin/v1/tenants/shop-b/policy?key="+key); rec.Code != 200 {
		t.Fatalf("policy: %d %s", rec.Code, rec.Body)
	}
	if p := f.Tenant("shop-b").Agent().Policy(); p == nil || p.Name() != key {
		t.Fatalf("forced policy = %v, want %q", p, key)
	}
	if rec := do("POST", "/admin/v1/tenants/shop-b/policy?key=unknown-ctx"); rec.Code != 404 {
		t.Fatalf("unknown policy: %d, want 404", rec.Code)
	}
	if rec := do("POST", "/admin/v1/tenants/shop-b/policy"); rec.Code != 400 {
		t.Fatalf("missing key: %d, want 400", rec.Code)
	}

	if rec := do("POST", "/admin/v1/tenants/shop-b/drain"); rec.Code != 200 {
		t.Fatalf("drain: %d %s", rec.Code, rec.Body)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	rec = do("GET", "/admin/v1/tenants/shop-b")
	if !strings.Contains(rec.Body.String(), `"state":"stopped"`) {
		t.Fatalf("drained status: %s", rec.Body)
	}
}

func TestFleetForcePolicyResetsLearning(t *testing.T) {
	f, err := New(Options{Seed: 21, RegistryDir: t.TempDir(), TrainInit: fastTrain()})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := f.Admit(TenantSpec{Name: "shop-a", Backend: "analytic", TrainPolicy: true, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Agent().Policy() != nil {
		t.Fatal("NoWarmStart tenant started with a policy")
	}
	if _, err := f.Run(2); err != nil {
		t.Fatal(err)
	}
	key := tn.Status().ContextKey
	if err := f.ForcePolicy("shop-a", key); err != nil {
		t.Fatal(err)
	}
	if p := tn.Agent().Policy(); p == nil || p.Name() != key {
		t.Fatalf("policy after force = %v", p)
	}
	logs := map[string][]stepRecord{}
	runRecorded(t, f, 1, logs)
	if log := logs["shop-a"]; len(log) != 1 || log[0].Policy != key {
		t.Fatalf("step after force recorded %+v, want policy %q", log, key)
	}
	if err := f.ForcePolicy("shop-a", "never-trained"); err == nil {
		t.Fatal("unknown context key accepted")
	}
}

// TestFleetScenarioTenant drives one tenant with the two-phase ramp scenario:
// every step must see that interval's workload applied to the backend, emit a
// workload trace event, and cross into the climb phase on schedule.
func TestFleetScenarioTenant(t *testing.T) {
	trace := telemetry.NewTrace(64)
	f, err := New(Options{Seed: 9, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	spec := analyticSpec("shop-a")
	spec.Scenario = "ramp"
	tn, err := f.Admit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Ramp: 4 idle intervals at 400 browsing clients, then the climb.
	if _, err := f.Run(6); err != nil {
		t.Fatal(err)
	}
	if tn.Interval() != 6 {
		t.Fatalf("interval = %d after 6 rounds, want 6", tn.Interval())
	}
	var events []telemetry.Event
	for _, ev := range trace.Snapshot() {
		if ev.Kind == telemetry.KindWorkload {
			events = append(events, ev)
		}
	}
	if len(events) != 6 {
		t.Fatalf("trace has %d workload events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Iteration != i+1 || ev.OfferedRate <= 0 {
			t.Fatalf("workload event %d = %+v", i, ev)
		}
	}
	if events[0].Detail != "idle" || events[5].Detail != "climb" {
		t.Fatalf("phases %q … %q, want idle … climb", events[0].Detail, events[5].Detail)
	}
	// Offered load climbs past the idle plateau once the ramp starts.
	if events[5].OfferedRate <= events[0].OfferedRate {
		t.Fatalf("offered rate did not climb: %.1f → %.1f",
			events[0].OfferedRate, events[5].OfferedRate)
	}

	// A scenario no backend can follow — or that does not exist — is an
	// admission error, not a runtime surprise.
	bad := analyticSpec("shop-x")
	bad.Scenario = "no-such-scenario"
	if _, err := f.Admit(bad); err == nil {
		t.Fatal("unknown scenario admitted")
	}
}

// TestFleetCapacityTenant covers the elastic-capacity tenant end to end:
// admission wraps the backend in the decorator, the status surfaces the level
// and scale counters, spec validation rejects orphaned capacity parameters,
// and a scale warm-starts the agent from the registry policy trained for the
// new level (SQLR-style per-level policy memory).
func TestFleetCapacityTenant(t *testing.T) {
	f, err := New(Options{Seed: 7, RegistryDir: t.TempDir(), TrainInit: fastTrain(),
		Telemetry: telemetry.NewRegistry(), Trace: telemetry.NewTrace(128)})
	if err != nil {
		t.Fatal(err)
	}

	bad := analyticSpec("shop-bad")
	bad.CapacityCost = 0.05 // without Capacity
	if _, err := f.Admit(bad); err == nil {
		t.Fatal("capacity parameters without capacity admitted")
	}

	spec := analyticSpec("shop-cap")
	spec.Capacity = true
	spec.CapacityCost = 0.05
	tn, err := f.Admit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Capacity() == nil {
		t.Fatal("capacity tenant has no decorator")
	}
	st := tn.Status()
	if st.Level == "" || st.CapacityUnits != 0 || st.ScaleUps != 0 {
		t.Fatalf("admission status %+v, want level set and zero counters", st)
	}

	if _, err := f.Run(3); err != nil {
		t.Fatal(err)
	}
	st = tn.Status()
	if want := 3 * tn.Capacity().Ordinal(); st.CapacityUnits != want {
		t.Fatalf("capacity units %d after 3 rounds at ordinal %d, want %d",
			st.CapacityUnits, tn.Capacity().Ordinal(), want)
	}

	// Publish a policy for the neighbouring level, scale to it, and check the
	// post-round hook adopts that policy.
	target := tn.Capacity().Ordinal() - 1
	if target < vmenv.MinOrdinal {
		target = tn.Capacity().Ordinal() + 1
	}
	lvl, err := vmenv.ByOrdinal(target)
	if err != nil {
		t.Fatal(err)
	}
	ctx := system.Context{Workload: tn.ctx.Workload, Level: lvl}
	key := ContextKey(ctx)
	if _, err := f.registry.Put(key, f.recipe(spec, ctx, key)); err != nil {
		t.Fatal(err)
	}
	if err := tn.Capacity().SetAppLevel(lvl); err != nil {
		t.Fatal(err)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	if p := tn.Agent().Policy(); p == nil || p.Name() != key {
		t.Fatalf("agent policy after scale = %v, want %s", p, key)
	}
	if st = tn.Status(); st.Level != lvl.Name {
		t.Fatalf("status level %q after scale, want %q", st.Level, lvl.Name)
	}
}

// doomedSystem is an analytic system whose measurements fail: its tenant
// fails on its first step.
type doomedSystem struct{ system.System }

func (doomedSystem) Measure(context.Context) (system.Metrics, error) {
	return system.Metrics{}, errors.New("doomed: measurement failed")
}

// TestFleetStateGaugesMatchRescan: the per-state tenant gauges move with every
// state change instead of being recounted, so after each operation of a random
// admit / pause / resume / drain / round sequence — tenants failing in rounds
// included — and after shutdown they equal a count over every tenant's state.
func TestFleetStateGaugesMatchRescan(t *testing.T) {
	reg := telemetry.NewRegistry()
	var f *Fleet
	f, err := New(Options{Seed: 3, Procs: 2, Shards: 3, Telemetry: reg,
		NewSystem: func(spec TenantSpec, ctx system.Context, seed uint64) (system.System, error) {
			sys, err := system.NewAnalytic(system.AnalyticOptions{
				Space: f.Space(), Context: ctx, Seed: seed, NoiseSigma: spec.NoiseSigma})
			if err != nil || !strings.HasPrefix(spec.Name, "doomed") {
				return sys, err
			}
			return doomedSystem{sys}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(op string) {
		t.Helper()
		want := make(map[State]float64)
		for _, tn := range f.Tenants() {
			want[tn.State()]++
		}
		for _, s := range States() {
			if got := reg.Gauge("rac_fleet_tenants", "", telemetry.Labels{"state": string(s)}).Value(); got != want[s] {
				t.Fatalf("after %s: rac_fleet_tenants{state=%q} = %v, a rescan counts %v", op, s, got, want[s])
			}
		}
	}
	check("New")
	rng := sim.NewRNG(17)
	var names []string
	pick := func() string { return names[rng.Intn(len(names))] }
	for i := 0; i < 80; i++ {
		var op string
		switch k := rng.Intn(6); {
		case k == 0 || len(names) == 0:
			name := fmt.Sprintf("shop-%d", len(names))
			if rng.Bool(0.15) {
				name = "doomed-" + name
			}
			if _, err := f.Admit(analyticSpec(name)); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
			op = "admit " + name
		case k == 1:
			op = "pause " + pick()
			_ = f.Pause(op[len("pause "):])
		case k == 2:
			op = "resume " + pick()
			_ = f.Resume(op[len("resume "):])
		case k == 3:
			op = "drain " + pick()
			_ = f.Drain(op[len("drain "):])
		default:
			op = "round"
			_ = f.RunRound()
		}
		check(op)
	}
	if err := f.Shutdown(); err != nil {
		t.Fatal(err)
	}
	check("Shutdown")
	failed := reg.Gauge("rac_fleet_tenants", "", telemetry.Labels{"state": string(StateFailed)}).Value()
	stopped := reg.Gauge("rac_fleet_tenants", "", telemetry.Labels{"state": string(StateStopped)}).Value()
	if failed == 0 || stopped == 0 {
		t.Fatalf("the sequence ended with %v failed and %v stopped tenants; it is meant to reach both", failed, stopped)
	}
}

// TestFleetTransitionTouchesNoOtherTenant: an admission or an admin move
// counts the tenant it moves and reads no other tenant's state, so its cost
// does not grow with the fleet — it completes while every other tenant's lock
// is held.
func TestFleetTransitionTouchesNoOtherTenant(t *testing.T) {
	f, err := New(Options{Seed: 4, Procs: 1, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var held []*Tenant
	for i := 0; i < 3; i++ {
		tn, err := f.Admit(analyticSpec(fmt.Sprintf("held-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, tn)
	}
	target, err := f.Admit(analyticSpec("target"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range held {
		tn.mu.Lock()
	}
	done := make(chan error, 1)
	go func() {
		if _, err := f.Admit(analyticSpec("late")); err != nil {
			done <- err
			return
		}
		if err := f.Pause(target.Name()); err != nil {
			done <- err
			return
		}
		done <- f.Drain(target.Name())
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("an admission or admin move waited on another tenant's lock")
	}
	for _, tn := range held {
		tn.mu.Unlock()
	}
}

// stalledSystem is an analytic system whose measurements, once armed, block
// until released: its tenant's step stays in flight.
type stalledSystem struct {
	system.System
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s stalledSystem) Measure(ctx context.Context) (system.Metrics, error) {
	if s.armed.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.System.Measure(ctx)
}

// TestCheckpointNowSkipsOtherTenantsStep: an admin checkpoint locks only the
// tenant it snapshots. With tenants a then b on one shard and b's step stuck
// in Measure, a manual checkpoint of a returns without waiting for b.
func TestCheckpointNowSkipsOtherTenantsStep(t *testing.T) {
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var f *Fleet
	f, err := New(Options{Seed: 5, Procs: 1, Shards: 1, CheckpointDir: t.TempDir(),
		NewSystem: func(spec TenantSpec, ctx system.Context, seed uint64) (system.System, error) {
			sys, err := system.NewAnalytic(system.AnalyticOptions{
				Space: f.Space(), Context: ctx, Seed: seed, NoiseSigma: spec.NoiseSigma})
			if err != nil || spec.Name != "b" {
				return sys, err
			}
			return stalledSystem{System: sys, armed: &armed, entered: entered, release: release}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := f.Admit(analyticSpec(name)); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	round := make(chan error, 1)
	go func() { round <- f.RunRound() }()
	<-entered // a has stepped; b is mid-step
	done := make(chan error, 1)
	go func() { done <- f.CheckpointNow("a") }()
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Error("CheckpointNow(a) waited for b's step")
		defer func() { <-done }()
	}
	armed.Store(false)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-round; err != nil {
		t.Fatal(err)
	}
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.spec.Name }

// Agent exposes the tenant's agent for diagnostics and tests.
func (t *Tenant) Agent() *core.Agent { return t.agent }

// Interval returns the number of completed measurement intervals.
func (t *Tenant) Interval() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.interval
}

// Capacity exposes the tenant's elastic decorator (nil without capacity).
func (t *Tenant) Capacity() *capacity.System { return t.built.Capacity }
