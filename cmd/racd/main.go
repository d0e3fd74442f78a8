// Command racd is the fleet daemon: the multi-tenant control plane of
// internal/fleet wrapped in a long-running process. It boots a fleet from a
// JSON config (one TenantSpec per managed web system), serves the admin
// lifecycle API next to /metrics and /admin/trace, checkpoints every tenant's
// learned state on a fixed cadence, and on SIGINT/SIGTERM drains the fleet —
// each tenant finishes its current interval and writes a final checkpoint —
// before exiting. Restarted over the same checkpoint directory, racd
// warm-restarts every tenant from its newest valid snapshot, so learned
// Q-tables survive the round trip.
//
//	racd -config examples/racd_fleet.json
//	curl http://127.0.0.1:7070/admin/v1/fleet
//	curl -X POST http://127.0.0.1:7070/admin/v1/tenants/shop-a/pause
//
// The -selfcheck mode (used by `make fleet-smoke`) runs the whole story in
// one process against a temporary directory: boot two simulated tenants,
// exercise the admin API, checkpoint, tear the fleet down, boot a second
// fleet over the same directory and verify both tenants restore.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	rac "github.com/rac-project/rac"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "racd:", err)
		os.Exit(1)
	}
}

// fleetConfig is the racd JSON config: fleet-wide knobs plus the tenant list.
// See examples/racd_fleet.json.
type fleetConfig struct {
	// Listen is the admin API address (default 127.0.0.1:7070).
	Listen string `json:"listen,omitempty"`
	// Seed is the fleet-wide base seed; tenant streams are derived from it.
	Seed uint64 `json:"seed,omitempty"`
	// Procs bounds the workers stepping tenants per round (0 = all CPUs).
	Procs int `json:"procs,omitempty"`
	// Shards is how many scheduling shards tenants hash onto (0 = fleet
	// default). Results are byte-identical at any shard count.
	Shards int `json:"shards,omitempty"`
	// TenantMetricsLimit caps per-tenant metric cardinality: tenants admitted
	// past it share per-shard step-latency histograms (0 = fleet default,
	// negative = all tenants aggregate per shard).
	TenantMetricsLimit int `json:"tenantMetricsLimit,omitempty"`
	// SLASeconds is the default SLA for tenants that do not set their own.
	SLASeconds float64 `json:"slaSeconds,omitempty"`
	// CheckpointDir holds per-tenant state snapshots; empty disables them.
	CheckpointDir string `json:"checkpointDir,omitempty"`
	// CheckpointEvery is the default snapshot cadence in intervals.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// CheckpointKeep is how many snapshots to retain per tenant.
	CheckpointKeep int `json:"checkpointKeep,omitempty"`
	// RegistryDir holds trained context policies for warm starts.
	RegistryDir string `json:"registryDir,omitempty"`
	// StepLog is the per-tenant in-memory step-record capacity.
	StepLog int `json:"stepLog,omitempty"`
	// TickMillis pauses between scheduling rounds (0 = back to back).
	TickMillis int `json:"tickMillis,omitempty"`
	// Tenants are the managed systems.
	Tenants []rac.TenantSpec `json:"tenants"`
}

func loadConfig(path string) (fleetConfig, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fleetConfig{}, err
	}
	cfg, err := parseConfig(buf)
	if err != nil {
		return cfg, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// parseConfig decodes exactly one fleet config document and fills in the
// daemon defaults.
func parseConfig(buf []byte) (fleetConfig, error) {
	var cfg fleetConfig
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return cfg, errors.New("data after the document")
	}
	if len(cfg.Tenants) == 0 {
		return cfg, errors.New("no tenants declared")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:7070"
	}
	return cfg, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("racd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		cfgPath   = fs.String("config", "", "JSON fleet config (see examples/racd_fleet.json)")
		listen    = fs.String("listen", "", "admin API address (overrides the config)")
		rounds    = fs.Int("rounds", 0, "stop after this many scheduling rounds (0 = run until SIGINT/SIGTERM)")
		traceCap  = fs.Int("trace", 512, "decision/lifecycle trace ring capacity")
		scenario  = fs.String("scenario", "", "default workload scenario (library name or JSON file) for tenants whose spec does not set one")
		selfcheck = fs.Bool("selfcheck", false, "run the built-in checkpoint/restart smoke and exit")
		tenants   = fs.Int("tenants", 0, "with -selfcheck: run the fleet-scale smoke over this many analytic tenants instead")
		shards    = fs.Int("shards", 0, "scheduling shard count (0 = fleet default); with -selfcheck -tenants, the scale smoke's shard count")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *selfcheck {
		if *tenants > 0 {
			return runScaleSelfcheck(out, *tenants, *shards)
		}
		return runSelfcheck(out)
	}
	if *cfgPath == "" {
		return errors.New("missing -config (or -selfcheck)")
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		return err
	}
	if *listen != "" {
		cfg.Listen = *listen
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *scenario != "" {
		if _, err := rac.ResolveWorkloadScenario(*scenario); err != nil {
			return err
		}
		for i := range cfg.Tenants {
			if cfg.Tenants[i].Scenario == "" {
				cfg.Tenants[i].Scenario = *scenario
			}
		}
	}

	d, err := newDaemon(cfg, *traceCap)
	if err != nil {
		return err
	}
	defer d.close()
	if err := d.admitAll(out); err != nil {
		return err
	}
	addr, err := d.serve(cfg.Listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet admin on http://%s/admin/v1/fleet  metrics on http://%s/metrics\n", addr, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return d.loop(out, sig, *rounds)
}

// daemon owns the fleet, its observability plumbing and the admin HTTP
// server.
type daemon struct {
	cfg   fleetConfig
	fleet *rac.Fleet
	tel   *rac.Telemetry
	trace *rac.Trace

	srv *http.Server
	ln  net.Listener
}

func newDaemon(cfg fleetConfig, traceCap int) (*daemon, error) {
	d := &daemon{cfg: cfg, tel: rac.NewTelemetry(), trace: rac.NewTrace(traceCap)}
	f, err := rac.NewFleet(rac.FleetOptions{
		Seed:               cfg.Seed,
		Procs:              cfg.Procs,
		Shards:             cfg.Shards,
		TenantMetricsLimit: cfg.TenantMetricsLimit,
		SLASeconds:         cfg.SLASeconds,
		CheckpointDir:      cfg.CheckpointDir,
		CheckpointEvery:    cfg.CheckpointEvery,
		CheckpointKeep:     cfg.CheckpointKeep,
		RegistryDir:        cfg.RegistryDir,
		StepLog:            cfg.StepLog,
		Telemetry:          d.tel,
		Trace:              d.trace,
	})
	if err != nil {
		return nil, err
	}
	d.fleet = f
	return d, nil
}

// admitAll admits every configured tenant, reporting warm starts and
// checkpoint restores as they happen.
func (d *daemon) admitAll(out io.Writer) error {
	for _, spec := range d.cfg.Tenants {
		t, err := d.fleet.Admit(spec)
		if err != nil {
			return fmt.Errorf("admit %s: %w", spec.Name, err)
		}
		st := t.Status()
		note := "cold start"
		switch {
		case st.Restored:
			note = fmt.Sprintf("restored from checkpoint at interval %d", st.Interval)
		case st.WarmStarted:
			note = fmt.Sprintf("warm start from policy %s", st.Policy)
		}
		if spec.Capacity {
			note += fmt.Sprintf(", elastic capacity from %s", st.Level)
		}
		fmt.Fprintf(out, "tenant %-12s %-8s backend=%s context=%s — %s\n",
			st.Name, st.State, st.Backend, st.Context, note)
	}
	return nil
}

// serve starts the admin HTTP server: the fleet lifecycle API plus the
// fleet-wide /metrics and /admin/trace views.
func (d *daemon) serve(addr string) (string, error) {
	mux := http.NewServeMux()
	fh := d.fleet.Handler()
	mux.Handle("/admin/v1/", fh)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := d.tel.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /admin/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(d.trace.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	d.ln = ln
	d.srv = &http.Server{Handler: mux}
	go d.srv.Serve(ln) //nolint:errcheck — returns ErrServerClosed on Shutdown
	return ln.Addr().String(), nil
}

// loop runs scheduling rounds until the round budget is spent, every tenant
// has stopped, or a termination signal arrives; then it drains the fleet
// (final checkpoints) and shuts the admin server down.
func (d *daemon) loop(out io.Writer, sig <-chan os.Signal, maxRounds int) error {
	tick := time.Duration(d.cfg.TickMillis) * time.Millisecond
	ran := 0
	for {
		select {
		case s := <-sig:
			fmt.Fprintf(out, "racd: %s — draining fleet\n", s)
			return d.shutdown(out)
		default:
		}
		if d.fleet.Active() == 0 {
			fmt.Fprintln(out, "racd: no active tenants left")
			return d.shutdown(out)
		}
		if err := d.fleet.RunRound(); err != nil {
			fmt.Fprintf(out, "racd: round %d: %v\n", d.fleet.Rounds(), err)
		}
		ran++
		if maxRounds > 0 && ran >= maxRounds {
			fmt.Fprintf(out, "racd: round budget spent (%d)\n", ran)
			return d.shutdown(out)
		}
		if tick > 0 {
			select {
			case s := <-sig:
				fmt.Fprintf(out, "racd: %s — draining fleet\n", s)
				return d.shutdown(out)
			case <-time.After(tick):
			}
		}
	}
}

// shutdown drains the fleet — every active tenant gets a final checkpoint and
// live tenants' servers stop — then stops the admin server.
func (d *daemon) shutdown(out io.Writer) error {
	err := d.fleet.Shutdown()
	if err != nil {
		fmt.Fprintf(out, "racd: fleet shutdown: %v\n", err)
	}
	for _, st := range d.fleet.Statuses() {
		fmt.Fprintf(out, "tenant %-12s %-8s interval=%d checkpoints=%d\n",
			st.Name, st.State, st.Interval, st.Checkpoints)
	}
	d.close()
	return err
}

// close releases the admin HTTP server (idempotent).
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d.srv != nil {
		_ = d.srv.Shutdown(ctx)
		d.srv = nil
	}
}

// runSelfcheck is the fleet smoke behind `make fleet-smoke`: boot two
// simulated tenants against a temporary checkpoint directory, exercise the
// admin API, drain with final checkpoints, then boot a second fleet over the
// same directory and verify both tenants warm-restart from disk.
func runSelfcheck(out io.Writer) error {
	dir, err := os.MkdirTemp("", "racd-selfcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := fleetConfig{
		Listen:          "127.0.0.1:0",
		Seed:            42,
		CheckpointDir:   filepath.Join(dir, "checkpoints"),
		CheckpointEvery: 2,
		RegistryDir:     filepath.Join(dir, "registry"),
		Tenants: []rac.TenantSpec{
			{Name: "shop-a", Backend: "sim", Context: "context-1", SettleSeconds: 5, MeasureSeconds: 10},
			{Name: "shop-b", Backend: "sim", Context: "context-2", SettleSeconds: 5, MeasureSeconds: 10},
			{Name: "shop-c", Backend: "sim", Context: "context-1", SettleSeconds: 5, MeasureSeconds: 10,
				Scenario: "ramp"},
		},
	}

	// First life: admit, run a few rounds, poke the admin API, drain.
	d, err := newDaemon(cfg, 128)
	if err != nil {
		return err
	}
	defer d.close()
	if err := d.admitAll(out); err != nil {
		return err
	}
	addr, err := d.serve(cfg.Listen)
	if err != nil {
		return err
	}
	if _, err := d.fleet.Run(6); err != nil {
		return fmt.Errorf("selfcheck rounds: %w", err)
	}

	base := "http://" + addr
	var view rac.FleetView
	if err := getJSON(base+"/admin/v1/fleet", &view); err != nil {
		return err
	}
	if len(view.Tenants) != 3 || view.Active != 3 {
		return fmt.Errorf("selfcheck: admin list reported %d tenants, %d active", len(view.Tenants), view.Active)
	}
	resp, err := http.Post(base+"/admin/v1/tenants/shop-a/checkpoint", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfcheck: manual checkpoint returned %d", resp.StatusCode)
	}
	if err := d.shutdown(out); err != nil {
		return fmt.Errorf("selfcheck drain: %w", err)
	}

	// Second life over the same directories: both tenants must restore.
	d2, err := newDaemon(cfg, 128)
	if err != nil {
		return err
	}
	defer d2.close()
	if err := d2.admitAll(out); err != nil {
		return err
	}
	for _, name := range []string{"shop-a", "shop-b", "shop-c"} {
		st := d2.fleet.Tenant(name).Status()
		if !st.Restored || st.Interval == 0 {
			return fmt.Errorf("selfcheck: tenant %s did not warm-restart (restored=%v interval=%d)",
				name, st.Restored, st.Interval)
		}
	}
	if _, err := d2.fleet.Run(2); err != nil {
		return fmt.Errorf("selfcheck post-restart rounds: %w", err)
	}
	addr2, err := d2.serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	metrics, err := getBody("http://" + addr2 + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{"rac_fleet_restores_total 3", "rac_fleet_checkpoints_total"} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("selfcheck: /metrics missing %q", want)
		}
	}
	if err := d2.shutdown(out); err != nil {
		return fmt.Errorf("selfcheck second drain: %w", err)
	}
	// The scenario tenant must have resumed mid-scenario: its workload events
	// continue from the checkpointed interval instead of restarting at 1.
	st := d2.fleet.Tenant("shop-c").Status()
	if st.Interval < 8 {
		return fmt.Errorf("selfcheck: scenario tenant resumed at interval %d, want ≥ 8", st.Interval)
	}
	fmt.Fprintln(out, "fleet selfcheck ok: 3 tenants checkpointed, restarted and warm-restored")
	return nil
}

// runScaleSelfcheck is the fleet-scale smoke behind `make fleet-scale-smoke`:
// boot a fleet, bulk-admit many analytic tenants through the versioned admin
// API, page through the tenant listing, run scheduling rounds, and verify the
// two production-scale properties — bounded memory per tenant and flat
// round latency (no fleet-wide lock convoy as rounds accumulate state).
func runScaleSelfcheck(out io.Writer, tenants, shards int) error {
	tel := rac.NewTelemetry()
	f, err := rac.NewFleet(rac.FleetOptions{Seed: 7, Shards: shards, Telemetry: tel})
	if err != nil {
		return err
	}
	defer f.Shutdown() //nolint:errcheck — smoke teardown

	mux := http.NewServeMux()
	fh := f.Handler()
	mux.Handle("/admin/v1/", fh)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck — returns ErrServerClosed on Shutdown
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + ln.Addr().String()

	// Bulk admission through POST /admin/v1/tenants, in batches.
	const batchSize = 500
	admitted := 0
	for admitted < tenants {
		n := batchSize
		if tenants-admitted < n {
			n = tenants - admitted
		}
		batch := make([]rac.TenantSpec, n)
		for i := range batch {
			id := admitted + i
			batch[i] = rac.TenantSpec{
				Name:    fmt.Sprintf("scale-%05d", id),
				Backend: "analytic",
				Context: fmt.Sprintf("context-%d", id%6+1),
			}
		}
		body, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/admin/v1/tenants", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("scale selfcheck: bulk admit returned %d, want 201", resp.StatusCode)
		}
		admitted += n
	}

	// The paginated listing must walk the whole fleet exactly once.
	seen := 0
	for offset := 0; ; {
		var page rac.TenantPage
		if err := getJSON(fmt.Sprintf("%s/admin/v1/tenants?offset=%d&limit=1000", base, offset), &page); err != nil {
			return err
		}
		if page.Total != tenants {
			return fmt.Errorf("scale selfcheck: page total %d, want %d", page.Total, tenants)
		}
		if len(page.Tenants) == 0 {
			break
		}
		seen += len(page.Tenants)
		offset += len(page.Tenants)
	}
	if seen != tenants {
		return fmt.Errorf("scale selfcheck: pagination walked %d tenants, want %d", seen, tenants)
	}

	// Every tenant must be owned by exactly one shard.
	var shardView []rac.ShardStatus
	if err := getJSON(base+"/admin/v1/shards", &shardView); err != nil {
		return err
	}
	owned := 0
	for _, s := range shardView {
		owned += s.Tenants
	}
	if owned != tenants {
		return fmt.Errorf("scale selfcheck: shards own %d tenants, want %d", owned, tenants)
	}

	// Round latency must stay flat as per-tenant state accumulates: the late
	// rounds may pay for grown Q-tables but not for any superlinear fleet-wide
	// bottleneck. The first rounds of a fresh fleet are no baseline for that:
	// every tenant of a context still measures the same configuration, so the
	// fleet's response-surface memo serves them almost for free.
	for i := 0; i < 2; i++ {
		if err := f.RunRound(); err != nil {
			return fmt.Errorf("scale selfcheck: warm-up round %d: %w", i+1, err)
		}
	}
	const rounds = 6
	durs := make([]float64, rounds)
	for i := range durs {
		start := time.Now()
		if err := f.RunRound(); err != nil {
			return fmt.Errorf("scale selfcheck: round %d: %w", i+1, err)
		}
		durs[i] = time.Since(start).Seconds()
	}
	firstAvg := (durs[0] + durs[1]) / 2
	lastAvg := (durs[rounds-2] + durs[rounds-1]) / 2
	if lastAvg > 4*firstAvg+0.25 {
		return fmt.Errorf("scale selfcheck: round latency grew %.3fs -> %.3fs (first vs last two-round average)",
			firstAvg, lastAvg)
	}

	// Memory per tenant must stay bounded — the shared Q-structure keeps the
	// MDP arrays O(contexts), not O(tenants).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perTenant := ms.HeapAlloc / uint64(tenants)
	const maxBytesPerTenant = 512 * 1024
	if perTenant > maxBytesPerTenant {
		return fmt.Errorf("scale selfcheck: %d bytes of heap per tenant, want ≤ %d", perTenant, maxBytesPerTenant)
	}

	fmt.Fprintf(out, "fleet scale selfcheck ok: %d tenants on %d shards, %d KiB/tenant, rounds %.3fs -> %.3fs\n",
		tenants, len(shardView), perTenant/1024, firstAvg, lastAvg)
	return nil
}

func getJSON(url string, v any) error {
	body, err := getBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), v)
}

func getBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, buf)
	}
	return string(buf), nil
}
