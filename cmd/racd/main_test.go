package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	rac "github.com/rac-project/rac"
)

// writeConfig dumps a fleetConfig to a temp file and returns its path.
func writeConfig(t *testing.T, cfg fleetConfig) string {
	t.Helper()
	buf, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func smokeConfig(t *testing.T) fleetConfig {
	t.Helper()
	return fleetConfig{
		Listen:          "127.0.0.1:0",
		Seed:            7,
		CheckpointDir:   filepath.Join(t.TempDir(), "ckpt"),
		CheckpointEvery: 2,
		Tenants: []rac.TenantSpec{
			{Name: "shop-a", Backend: "sim", Context: "context-1", SettleSeconds: 5, MeasureSeconds: 10},
			{Name: "shop-b", Backend: "analytic", Context: "context-2", NoiseSigma: 0.1},
		},
	}
}

func TestLoadConfigValidation(t *testing.T) {
	if _, err := loadConfig(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"tennants": []}`), 0o644) //nolint:errcheck
	if _, err := loadConfig(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	// The fleet keeps no step log, so a config sizing one is rejected.
	stepLog := filepath.Join(dir, "steplog.json")
	os.WriteFile(stepLog, []byte(`{"stepLog": 256, "tenants": [{"name": "x"}]}`), 0o644) //nolint:errcheck
	if _, err := loadConfig(stepLog); err == nil || !strings.Contains(err.Error(), `unknown field "stepLog"`) {
		t.Fatalf("stepLog config: got %v, want the unknown-field error", err)
	}

	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"seed": 1}`), 0o644) //nolint:errcheck
	if _, err := loadConfig(empty); err == nil {
		t.Fatal("tenant-less config accepted")
	}

	ok := writeConfig(t, smokeConfig(t))
	cfg, err := loadConfig(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(cfg.Tenants))
	}
	// An empty listen address gets the daemon default.
	noListen := smokeConfig(t)
	noListen.Listen = ""
	cfg, err = loadConfig(writeConfig(t, noListen))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "127.0.0.1:7070" {
		t.Fatalf("default listen = %q", cfg.Listen)
	}
}

// TestExampleConfigLoads keeps the shipped config — one tenant per backend,
// "live" among them — loadable as the daemon's JSON format.
func TestExampleConfigLoads(t *testing.T) {
	cfg, err := loadConfig(filepath.Join("..", "..", "examples", "racd_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]bool{}
	for _, sp := range cfg.Tenants {
		if err := sp.Validate(); err != nil {
			t.Error(err)
		}
		backends[sp.Backend] = true
	}
	for _, b := range []string{"sim", "analytic", "live"} {
		if !backends[b] {
			t.Errorf("example config has no %s tenant", b)
		}
	}
}

// exampleConfig is the shipped example fleet config's bytes.
func exampleConfig(tb testing.TB) []byte {
	tb.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "examples", "racd_fleet.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

func TestLoadConfigRejectsTrailingData(t *testing.T) {
	example := exampleConfig(t)
	for _, tail := range []string{" junk", `{"tenants":[{"name":"x"}]}`} {
		path := filepath.Join(t.TempDir(), "fleet.json")
		if err := os.WriteFile(path, append(bytes.Clone(example), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadConfig(path); err == nil {
			t.Errorf("config followed by %q loaded", tail)
		}
	}
}

// FuzzLoadConfig: a config racd accepts marshals, and the marshaled bytes
// load back to an equal config.
func FuzzLoadConfig(f *testing.F) {
	example := exampleConfig(f)
	f.Add(example)
	f.Add(append(bytes.Clone(example), " junk"...))
	f.Add([]byte(`{"tenants":[{}]}`))
	f.Add([]byte(`{"seed":1,"tenants":[{"name":"a","slaSeconds":-0,"rate":1e308}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := parseConfig(data)
		if err != nil {
			return
		}
		buf, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		again, err := parseConfig(buf)
		if err != nil {
			t.Fatalf("marshaled config does not load: %v\n%s", err, buf)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("config changed across marshal and reload:\n%+v\nvs\n%+v", cfg, again)
		}
	})
}

func TestRunFlagErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil || !strings.Contains(err.Error(), "missing -config") {
		t.Fatalf("config-less run: %v", err)
	}
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunRoundBudget boots the daemon from a config file for a fixed round
// budget and checks that it drains with final checkpoints on disk.
func TestRunRoundBudget(t *testing.T) {
	cfg := smokeConfig(t)
	path := writeConfig(t, cfg)
	var out bytes.Buffer
	if err := run([]string{"-config", path, "-rounds", "3"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"fleet admin on", "round budget spent (3)", "stopped"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Drain wrote final checkpoints for both tenants.
	for _, name := range []string{"shop-a", "shop-b"} {
		matches, err := filepath.Glob(filepath.Join(cfg.CheckpointDir, name, "*.rac"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 {
			t.Errorf("no checkpoints for %s", name)
		}
	}
}

// syncWriter serializes writes from the daemon goroutine with test reads.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSignalDrain runs the daemon with no round budget and stops it with a
// real SIGTERM: the loop must drain the fleet and exit cleanly.
func TestSignalDrain(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.TickMillis = 5
	path := writeConfig(t, cfg)
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-config", path}, out) }()

	// Wait for the admin server (the signal handler is installed right
	// after it), then give Notify a beat to land before firing.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "fleet admin on") {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "draining fleet") {
		t.Errorf("no drain note in output:\n%s", out.String())
	}
}

// TestSelfcheck runs the `make fleet-smoke` path end to end.
func TestSelfcheck(t *testing.T) {
	var out bytes.Buffer
	if err := runSelfcheck(&out); err != nil {
		t.Fatalf("selfcheck: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fleet selfcheck ok") {
		t.Fatalf("selfcheck output:\n%s", out.String())
	}
}
