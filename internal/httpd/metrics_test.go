package httpd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/admission"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/home", "/home", "/search?q=systems"} {
		if code, body := get(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != telemetry.PrometheusContentType {
		t.Errorf("content type %q, want %q", got, telemetry.PrometheusContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE httpd_request_seconds histogram",
		`httpd_request_seconds_bucket{class="home",le="+Inf"} 2`,
		`httpd_request_seconds_count{class="home"} 2`,
		`httpd_requests_total{class="home"} 2`,
		`httpd_requests_total{class="search"} 1`,
		`httpd_rejected_total{tier="web"} 0`,
		"# TYPE httpd_sessions gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

func TestMetricsSharedRegistry(t *testing.T) {
	srv, ts := newTestServer(t)
	// A foreign layer registering on the server's registry (the way the
	// agent and load driver do) must appear on the same /metrics page.
	srv.Telemetry().Counter("rac_agent_steps_total", "steps", nil).Add(3)

	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(body, "rac_agent_steps_total 3") {
		t.Fatalf("agent counter not exposed:\n%s", body)
	}
}

func TestAdminTraceEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)

	// Without a trace attached the endpoint serves an empty array.
	code, body := get(t, ts.URL+"/admin/trace")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty trace: %d %q", code, body)
	}

	tr := telemetry.NewTrace(8)
	tr.Add(telemetry.Event{Kind: telemetry.KindStep, Iteration: 1, State: "30|10", Reward: 0.4})
	tr.Add(telemetry.Event{Kind: telemetry.KindPolicySwitch, Iteration: 2, Policy: "ctx-2"})
	srv.SetTrace(tr)

	_, body = get(t, ts.URL+"/admin/trace")
	var events []telemetry.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, body)
	}
	if len(events) != 2 || events[0].Kind != telemetry.KindStep || events[1].Policy != "ctx-2" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d", events[0].Seq, events[1].Seq)
	}
}

// TestAdminTraceShowsGateSignal checks that each admission event on
// /admin/trace carries the latency shares behind the gate's verdict.
func TestAdminTraceShowsGateSignal(t *testing.T) {
	params := webtier.DefaultParams()
	params.AdmitConcurrency = 8
	srv, err := NewServer(params, vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	srv.SetTrace(telemetry.NewTrace(8))

	// One default epoch of admitted requests, a fifth of them late. The
	// epoch closes on its last arrival, before that request completes.
	size := admission.DefaultEpoch().Size
	for i := 0; i < size; i++ {
		release, ok := srv.gate.Enter(tpcw.ClassHome)
		if !ok {
			t.Fatal("gate refused below its cap")
		}
		rt := 0.1
		if i%5 == 0 {
			rt = 3
		}
		srv.gate.Complete(rt)
		release()
	}
	late := float64(size/5) / float64(size-1)

	_, body := get(t, ts.URL+"/admin/trace")
	var events []telemetry.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, body)
	}
	if len(events) != 1 {
		t.Fatalf("events = %+v, want one admission decision", events)
	}
	ev := events[0]
	if ev.Kind != telemetry.KindAdmission || ev.Detail != "spread" || ev.LateShare != late || ev.SlowShare != late || ev.RejectRate != 0 {
		t.Fatalf("admission event %+v, want spread on late and slow shares of %g", ev, late)
	}
	if !strings.Contains(body, `"late_share":0.2`) || !strings.Contains(body, `"slow_share":0.2`) {
		t.Fatalf("trace JSON lacks the latency shares: %s", body)
	}
}
