package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// scaledSpecs builds a deterministic mixed-population tenant list: analytic
// tenants across all six paper contexts with varied noise, a few policy
// trainers, and one elastic-capacity tenant.
func scaledSpecs(n int) []TenantSpec {
	specs := make([]TenantSpec, 0, n)
	for i := 0; i < n; i++ {
		sp := TenantSpec{
			Name:       fmt.Sprintf("scaled-%04d", i),
			Backend:    "analytic",
			Context:    fmt.Sprintf("context-%d", i%6+1),
			NoiseSigma: 0.1 + float64(i%3)*0.1,
		}
		switch {
		case i%29 == 0:
			sp.TrainPolicy = true
		case i == 7:
			sp.Capacity = true
			sp.CapacityCost = 0.05
			sp.NoiseSigma = 0.2
		}
		specs = append(specs, sp)
	}
	return specs
}

// runScaledFleet runs a fresh fleet over the scaled tenant population at the
// given worker and shard counts, returning every tenant's status JSON, step
// records, serialized agent state, and newest checkpoint bytes.
func runScaledFleet(t *testing.T, procs, shards, tenants, rounds int) (map[string][]byte, map[string][]stepRecord, map[string][]byte, map[string][]byte) {
	t.Helper()
	f := newDeterminismFleet(t, Options{Procs: procs, Shards: shards})
	r := runFleetSpecs(t, f, scaledSpecs(tenants), rounds)
	return r.statuses, r.logs, r.states, r.cks
}

// newDeterminismFleet builds the fleet the byte-identity tests run: fixed
// seed and training schedule, a registry, and checkpoints every third
// interval; opts supplies what a test varies.
func newDeterminismFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	opts.Seed = 1234
	opts.RegistryDir = t.TempDir()
	opts.CheckpointDir = t.TempDir()
	opts.CheckpointEvery = 3
	opts.TrainInit = fastTrain()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fleetRun is everything a fleet run leaves behind that must not depend on
// how it was scheduled or served, per tenant name.
type fleetRun struct {
	statuses map[string][]byte       // Status() as JSON
	logs     map[string][]stepRecord // runRecorded's per-step records
	states   map[string][]byte       // Agent.ExportState()
	cks      map[string][]byte       // newest checkpoint file, raw
}

// runFleetSpecs admits specs into f, runs the rounds and collects the run.
func runFleetSpecs(t *testing.T, f *Fleet, specs []TenantSpec, rounds int) fleetRun {
	t.Helper()
	for _, sp := range specs {
		if _, err := f.Admit(sp); err != nil {
			t.Fatal(err)
		}
	}
	r := fleetRun{
		statuses: make(map[string][]byte, len(specs)),
		logs:     make(map[string][]stepRecord, len(specs)),
		states:   make(map[string][]byte, len(specs)),
		cks:      make(map[string][]byte, len(specs)),
	}
	runRecorded(t, f, rounds, r.logs)
	for _, sp := range specs {
		tn := f.Tenant(sp.Name)
		st, err := json.Marshal(tn.Status())
		if err != nil {
			t.Fatal(err)
		}
		r.statuses[sp.Name] = st
		r.states[sp.Name] = exportAgent(t, tn)
		if _, path, err := f.ckpts.Latest(sp.Name); err != nil {
			t.Fatal(err)
		} else if path != "" {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r.cks[sp.Name] = buf
		}
	}
	return r
}

// TestFleetShardedDeterminism is the production-scale determinism regression:
// a mixed fleet produces byte-identical statuses, step records, agent states
// and checkpoint files at every combination of worker count and shard count.
// Tenant streams are pre-split by name, shards advance their tenants
// sequentially, and shared state (policy store, registry) only changes at
// round barriers — so neither the pool size nor the shard topology may be
// observable in any output.
func TestFleetShardedDeterminism(t *testing.T) {
	const tenants, rounds = 120, 7
	type cfg struct{ procs, shards int }
	baseline := cfg{procs: 1, shards: 1}
	variants := []cfg{{procs: 8, shards: 1}, {procs: 1, shards: 8}, {procs: 8, shards: 5}}

	baseStatuses, baseLogs, baseStates, baseCks := runScaledFleet(t, baseline.procs, baseline.shards, tenants, rounds)
	if len(baseCks) == 0 {
		t.Fatal("baseline run wrote no checkpoints")
	}
	for _, v := range variants {
		statuses, logs, states, cks := runScaledFleet(t, v.procs, v.shards, tenants, rounds)
		for name, want := range baseStatuses {
			if !bytes.Equal(want, statuses[name]) {
				t.Errorf("procs=%d shards=%d: tenant %s status differs:\n base %s\n  got %s",
					v.procs, v.shards, name, want, statuses[name])
			}
		}
		for name, want := range baseLogs {
			got := logs[name]
			if len(want) != len(got) {
				t.Fatalf("procs=%d shards=%d: tenant %s: %d records, baseline %d",
					v.procs, v.shards, name, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("procs=%d shards=%d: tenant %s step %d: baseline %+v, got %+v",
						v.procs, v.shards, name, i, want[i], got[i])
					break
				}
			}
		}
		for name, want := range baseStates {
			if !bytes.Equal(want, states[name]) {
				t.Errorf("procs=%d shards=%d: tenant %s final agent state differs", v.procs, v.shards, name)
			}
		}
		for name, want := range baseCks {
			if !bytes.Equal(want, cks[name]) {
				t.Errorf("procs=%d shards=%d: tenant %s checkpoint bytes differ", v.procs, v.shards, name)
			}
		}
	}
}

// TestOptionsValidation exercises the Options sentinels.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Shards: -1}); !errors.Is(err, ErrBadShards) {
		t.Errorf("Shards=-1: got %v, want ErrBadShards", err)
	}
	if _, err := New(Options{Shards: maxShards + 1}); !errors.Is(err, ErrBadShards) {
		t.Errorf("Shards over cap: got %v, want ErrBadShards", err)
	}
	if _, err := New(Options{CheckpointEvery: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative cadence: got %v, want ErrBadOptions", err)
	}
	if _, err := New(Options{SLASeconds: -2}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative SLA: got %v, want ErrBadOptions", err)
	}
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.ShardStatuses()); got != defaultShards {
		t.Errorf("default shard count %d, want %d", got, defaultShards)
	}
	if _, err := f.Admit(TenantSpec{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("nameless spec: got %v, want ErrBadSpec", err)
	}
	if _, err := f.Admit(TenantSpec{Name: "x", SLASeconds: -1}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("negative tenant SLA: got %v, want ErrBadSpec", err)
	}
	if _, err := f.Admit(TenantSpec{Name: "a", Backend: "analytic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(TenantSpec{Name: "a", Backend: "analytic"}); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("duplicate admit: got %v, want ErrDuplicateTenant", err)
	}
	if err := f.Pause("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("pause unknown: got %v, want ErrUnknownTenant", err)
	}
	if err := f.Resume("a"); !errors.Is(err, ErrBadTransition) {
		t.Errorf("resume running: got %v, want ErrBadTransition", err)
	}
	if err := f.CheckpointNow("a"); !errors.Is(err, ErrCheckpointsDisabled) {
		t.Errorf("checkpoint without store: got %v, want ErrCheckpointsDisabled", err)
	}
	if err := f.ForcePolicy("a", "nope"); !errors.Is(err, ErrNoPolicy) {
		t.Errorf("force unknown policy: got %v, want ErrNoPolicy", err)
	}
}

// TestAdminPaginationAndBulkAdmit drives the v1 listing and bulk-admission
// endpoints end to end, including the structured error body and the legacy
// alias's deprecation headers.
func TestAdminPaginationAndBulkAdmit(t *testing.T) {
	f, err := New(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	// Bulk admit: 7 good specs plus one bad and one duplicate → 207.
	specs := make([]TenantSpec, 0, 9)
	for i := 0; i < 7; i++ {
		specs = append(specs, TenantSpec{Name: fmt.Sprintf("bulk-%d", i), Backend: "analytic"})
	}
	specs = append(specs, TenantSpec{Name: "", Backend: "analytic"})
	specs = append(specs, TenantSpec{Name: "bulk-0", Backend: "analytic"})
	body, _ := json.Marshal(specs)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/v1/tenants", bytes.NewReader(body)))
	if rec.Code != 207 {
		t.Fatalf("mixed bulk admit: status %d, want 207: %s", rec.Code, rec.Body)
	}
	var results []AdmitResult
	if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("bulk admit returned %d results, want 9", len(results))
	}
	for i := 0; i < 7; i++ {
		if results[i].Error != "" {
			t.Errorf("spec %d failed: %s", i, results[i].Error)
		}
	}
	if results[7].Code != "bad_spec" || results[8].Code != "duplicate_tenant" {
		t.Errorf("failure codes %q, %q; want bad_spec, duplicate_tenant", results[7].Code, results[8].Code)
	}

	// An all-good batch → 201.
	body, _ = json.Marshal([]TenantSpec{{Name: "bulk-7", Backend: "analytic"}})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/v1/tenants", bytes.NewReader(body)))
	if rec.Code != 201 {
		t.Fatalf("clean bulk admit: status %d, want 201: %s", rec.Code, rec.Body)
	}

	// Pagination: 8 tenants in pages of 3 → 3+3+2, then an empty page.
	sizes := []int{3, 3, 2, 0}
	offset := 0
	for _, want := range sizes {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/admin/v1/tenants?offset=%d&limit=3", offset), nil))
		if rec.Code != 200 {
			t.Fatalf("page at offset %d: status %d", offset, rec.Code)
		}
		var page TenantPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Tenants) != want || page.Total != 8 {
			t.Fatalf("page at offset %d: %d tenants (want %d), total %d (want 8)",
				offset, len(page.Tenants), want, page.Total)
		}
		offset += len(page.Tenants)
	}

	// Default limit applies when ?limit= is absent.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/v1/tenants", nil))
	var page TenantPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Limit != defaultPageLimit || len(page.Tenants) != 8 {
		t.Errorf("default page: limit %d (want %d), %d tenants", page.Limit, defaultPageLimit, len(page.Tenants))
	}

	// Bad pagination parameters → structured 400.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/v1/tenants?offset=-1", nil))
	if rec.Code != 400 {
		t.Fatalf("negative offset: status %d, want 400", rec.Code)
	}
	var apiErr apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Code != "bad_request" {
		t.Errorf("negative offset body %s (decode err %v), want code bad_request", rec.Body, err)
	}

	// Structured 404 with a stable code on the v1 tenant route.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/v1/tenants/ghost", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown tenant: status %d, want 404", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Code != "unknown_tenant" {
		t.Errorf("unknown tenant body %s (decode err %v), want code unknown_tenant", rec.Body, err)
	}

	// Shard listing covers every tenant exactly once.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/v1/shards", nil))
	var shardView []ShardStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &shardView); err != nil {
		t.Fatal(err)
	}
	if len(shardView) != 4 {
		t.Fatalf("shard listing has %d shards, want 4", len(shardView))
	}
	owned := 0
	for _, s := range shardView {
		owned += s.Tenants
	}
	if owned != 8 {
		t.Errorf("shards own %d tenants, want 8", owned)
	}

	// The pre-versioning routes are retired.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/fleet", nil))
	if rec.Code != 404 {
		t.Errorf("retired /admin/fleet: status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/v1/fleet", nil))
	var view FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Tenants) != 8 {
		t.Errorf("v1 fleet view has %d tenants, want 8", len(view.Tenants))
	}
}

// TestTelemetryCardinalityCap verifies the per-tenant histogram cap: tenants
// admitted past TenantMetricsLimit fold into per-shard series, bounding the
// /metrics exposition size as the fleet grows.
func TestBulkAdmitRejectsTrailingData(t *testing.T) {
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	body := `[{"name":"a","backend":"analytic"}] junk`
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/v1/tenants", strings.NewReader(body)))
	if rec.Code != 400 {
		t.Fatalf("spec array followed by junk: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if f.Tenant("a") != nil {
		t.Fatal("spec array followed by junk admitted a tenant")
	}
}

// TestBulkAdmitBodyCap: POST /admin/v1/tenants reads at most maxAdmitBody
// bytes. A spec array padded to the cap is admitted; one byte more is
// refused with 413 and the structured error body, and admits nothing.
func TestBulkAdmitBodyCap(t *testing.T) {
	doc := []byte(`[{"name":"a","backend":"analytic"}]`)
	for _, size := range []int{maxAdmitBody + 1, maxAdmitBody} {
		f, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		body := append(bytes.Repeat([]byte(" "), size-len(doc)), doc...)
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/v1/tenants", bytes.NewReader(body)))
		if size <= maxAdmitBody {
			if rec.Code != 201 || f.Tenant("a") == nil {
				t.Fatalf("a %d-byte body: status %d %s, want 201 and tenant a", size, rec.Code, rec.Body)
			}
			continue
		}
		var apiErr apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || rec.Code != 413 || apiErr.Code != "body_too_large" {
			t.Fatalf("a %d-byte body: status %d %s (%v), want 413 body_too_large", size, rec.Code, rec.Body, err)
		}
		if f.Tenant("a") != nil {
			t.Fatalf("a %d-byte body admitted a tenant", size)
		}
	}
}

func TestTelemetryCardinalityCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	f, err := New(Options{Shards: 4, TenantMetricsLimit: 5, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 24
	for i := 0; i < tenants; i++ {
		if _, err := f.Admit(TenantSpec{Name: fmt.Sprintf("cap-%02d", i), Backend: "analytic"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Run(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	perTenant := strings.Count(exposition, `rac_fleet_step_seconds_count{tenant="`)
	if perTenant != 5 {
		t.Errorf("%d per-tenant step series, want exactly 5 (the cap)", perTenant)
	}
	if !strings.Contains(exposition, `rac_fleet_shard_step_seconds_count{shard="`) {
		t.Error("no per-shard aggregate series for capped tenants")
	}
	// The fleet's response-surface memo reports on the same registry: two
	// unlabeled series, whatever the tenant count.
	for _, name := range []string{"rac_surface_cache_hits_total", "rac_surface_cache_misses_total"} {
		if strings.Count(exposition, "\n"+name+" ") != 1 {
			t.Errorf("exposition does not carry exactly one %s sample", name)
		}
	}

	// The regression: exposition size must not scale with tenant count past
	// the cap. An uncapped fleet would emit ~(buckets+3) lines per tenant;
	// the capped one stays under what 8 fully-labeled tenants would cost.
	lines := strings.Count(exposition, "\n")
	perTenantLines := len(stepBuckets) + 3 // buckets + sum + count + +Inf
	if budget := 8 * perTenantLines * 2; lines > budget+200 {
		t.Errorf("exposition has %d lines for %d tenants — cardinality cap not holding (budget %d)",
			lines, tenants, budget+200)
	}

	// A negative limit sends every tenant to the shard aggregates.
	reg2 := telemetry.NewRegistry()
	f2, err := New(Options{Shards: 2, TenantMetricsLimit: -1, Telemetry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Admit(TenantSpec{Name: "agg", Backend: "analytic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Run(1); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := reg2.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `rac_fleet_step_seconds_count{tenant="`) {
		t.Error("negative limit still produced a per-tenant series")
	}
}

// TestRegistryNearest exercises the nearest-context policy ranking: same mix
// beats different mix, then the closest VM level, then the closest client
// population, with the key as a deterministic tiebreak.
func TestRegistryNearest(t *testing.T) {
	f, err := New(Options{Seed: 9, RegistryDir: t.TempDir(), TrainInit: fastTrain()})
	if err != nil {
		t.Fatal(err)
	}
	reg := f.registry
	train := func(context string) string {
		t.Helper()
		ctx, err := system.ContextByName(context)
		if err != nil {
			t.Fatal(err)
		}
		key := ContextKey(ctx)
		if _, err := reg.Put(key, f.recipe(TenantSpec{Name: "seed-" + context}, ctx, key)); err != nil {
			t.Fatal(err)
		}
		return key
	}
	key1 := train("context-1")
	key3 := train("context-3")

	// A context that matches context-1's mix must pick it over context-3.
	ctx2, err := system.ContextByName("context-2")
	if err != nil {
		t.Fatal(err)
	}
	pol, key, err := reg.Nearest(ctx2, ContextKey(ctx2))
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil {
		t.Fatal("Nearest found no policy with two stored")
	}
	if key != key1 && key != key3 {
		t.Fatalf("Nearest returned unknown key %q", key)
	}
	// Whatever it picked, it must be deterministic and skip the exact key.
	pol2, key2, err := reg.Nearest(ctx2, ContextKey(ctx2))
	if err != nil || pol2 == nil || key2 != key {
		t.Fatalf("Nearest not stable: first %q, second %q (err %v)", key, key2, err)
	}

	// Excluding the winner falls through to the runner-up.
	_, keyAlt, err := reg.Nearest(ctx2, key)
	if err != nil {
		t.Fatal(err)
	}
	if keyAlt == key || keyAlt == "" {
		t.Fatalf("excluded key %q came back (got %q)", key, keyAlt)
	}

	// An admitted tenant with no exact policy warm-starts from the nearest
	// context; NoWarmStart opts out.
	tn, err := f.Admit(TenantSpec{Name: "near", Backend: "analytic", Context: "context-2"})
	if err != nil {
		t.Fatal(err)
	}
	if st := tn.Status(); !st.WarmStarted || st.Policy == "" {
		t.Errorf("tenant did not nearest-warm-start: %+v", st)
	}
	cold, err := f.Admit(TenantSpec{Name: "cold", Backend: "analytic", Context: "context-2", NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Status(); st.WarmStarted {
		t.Errorf("NoWarmStart tenant warm-started: %+v", st)
	}
}

// TestParseContextKey pins the key-decomposition used by Nearest.
func TestParseContextKey(t *testing.T) {
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := parseContextKey(ContextKey(ctx))
	if !ok {
		t.Fatalf("ContextKey(%s) did not parse", ctx.Name)
	}
	if c.Workload != ctx.Workload || c.Level != ctx.Level {
		t.Errorf("parsed %+v from %s", c, ContextKey(ctx))
	}
	for _, bad := range []string{"", "no-at-sign", "bogus-12@NoSuchLevel", "mixless@Level-1", "browsing-x@Level-1"} {
		if _, ok := parseContextKey(bad); ok {
			t.Errorf("parseContextKey(%q) accepted", bad)
		}
	}
}
