package capacity

import (
	"reflect"
	"testing"
)

// steadyObs is a healthy interval: everything offered completes, latency
// well under the SLA.
func steadyObs() Observation {
	return Observation{Offered: 1000, Completed: 995, MeanRT: 0.4, P99RT: 0.8}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(2.0).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Window: 0, SLASeconds: 2},
		{Window: 3, SLASeconds: 0},
		{Window: 3, SLASeconds: 2, Cooldown: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestAnalyzerWarmup(t *testing.T) {
	a, err := NewAnalyzer(DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	// The window holds 3; the first two observations must withhold a verdict
	// even on blatant saturation.
	for i := 0; i < 2; i++ {
		d := a.Observe(Observation{Offered: 2000, Completed: 100, MeanRT: 20, P99RT: 30})
		if d.Verdict != VerdictStable || d.Reason != "warming" {
			t.Fatalf("obs %d: verdict %s reason %q during warmup", i, d.Verdict, d.Reason)
		}
	}
	if d := a.Observe(Observation{Offered: 2000, Completed: 100, MeanRT: 20, P99RT: 30}); d.Verdict != VerdictSaturated {
		t.Fatalf("full window verdict %s (%s), want saturated", d.Verdict, d.Reason)
	}
}

func TestKneeDetectionAtCliff(t *testing.T) {
	cfg := DefaultConfig(2.0)
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Calm traffic, then a flash crowd past the knee: completions plateau at
	// ~1100/interval while offered load doubles and p99 breaches the SLA.
	for i := 0; i < 3; i++ {
		if d := a.Observe(steadyObs()); d.Verdict == VerdictSaturated {
			t.Fatalf("calm obs %d saturated: %s", i, d.Reason)
		}
	}
	var saturated bool
	for i := 0; i < cfg.Window; i++ {
		d := a.Observe(Observation{Offered: 2200, Completed: 1100, MeanRT: 3.5, P99RT: 9.0})
		if d.Verdict == VerdictSaturated {
			saturated = true
			if d.CompletionRatio >= saturationRatio {
				t.Fatalf("saturated verdict with ratio %.2f above knee", d.CompletionRatio)
			}
		}
	}
	if !saturated {
		t.Fatal("capacity cliff never detected")
	}
}

func TestKneeDetectionViaRejections(t *testing.T) {
	// A gated system at the cliff: latency stays bounded (the gate's job)
	// but most arrivals are turned away — unmet demand is still saturation.
	a, err := NewAnalyzer(DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	var saturated bool
	for i := 0; i < 3; i++ {
		d := a.Observe(Observation{Offered: 2000, Completed: 1100, Rejected: 880, MeanRT: 0.9, P99RT: 1.8})
		if d.Verdict == VerdictSaturated {
			saturated = true
		}
	}
	if !saturated {
		t.Fatal("heavy gate rejection not detected as saturation")
	}
}

func TestLatencyOnlyDetection(t *testing.T) {
	// Producers without arrival counts (Offered 0) still saturate on a
	// latency breach with non-shrinking backlog.
	a, err := NewAnalyzer(DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	var saturated bool
	for i := 0; i < 3; i++ {
		d := a.Observe(Observation{Completed: 500, MeanRT: 4.0, P99RT: 11.0})
		if d.CompletionRatio != 1 {
			t.Fatalf("untracked demand ratio %.2f, want 1", d.CompletionRatio)
		}
		if d.Verdict == VerdictSaturated {
			saturated = true
		}
	}
	if !saturated {
		t.Fatal("latency breach without arrival counts not detected")
	}
}

func TestNoFalsePositiveOnSteady(t *testing.T) {
	a, err := NewAnalyzer(DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// Steady healthy traffic with small fluctuations around full service.
		o := steadyObs()
		o.Completed = 990 + i%12 // 990..1001: ratio hovers around 1
		if d := a.Observe(o); d.Verdict == VerdictSaturated {
			t.Fatalf("obs %d: steady traffic flagged saturated (%s)", i, d.Reason)
		}
	}
}

func TestHeadroomVerdict(t *testing.T) {
	a, err := NewAnalyzer(DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	var headroom bool
	for i := 0; i < 3; i++ {
		// Everything served, p99 a quarter of the SLA: capacity to give back.
		d := a.Observe(Observation{Offered: 400, Completed: 400, MeanRT: 0.2, P99RT: 0.5})
		if d.Verdict == VerdictHeadroom {
			headroom = true
		}
	}
	if !headroom {
		t.Fatal("obvious headroom never detected")
	}
}

func TestNoHeadroomWhenLatencyWarm(t *testing.T) {
	a, err := NewAnalyzer(DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		// Fully served but p99 at 80% of the SLA: serving everything slowly
		// is not headroom.
		if d := a.Observe(Observation{Offered: 400, Completed: 400, MeanRT: 0.9, P99RT: 1.6}); d.Verdict == VerdictHeadroom {
			t.Fatalf("obs %d: warm latency flagged headroom (%s)", i, d.Reason)
		}
	}
}

func TestCooldownSuppressesRepeatVerdicts(t *testing.T) {
	cfg := DefaultConfig(2.0)
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sat := Observation{Offered: 2000, Completed: 900, MeanRT: 5, P99RT: 14}
	var decisions []Decision
	for i := 0; i < cfg.Window+cfg.Cooldown+1; i++ {
		decisions = append(decisions, a.Observe(sat))
	}
	first := cfg.Window - 1 // first full-window decision
	if decisions[first].Verdict != VerdictSaturated {
		t.Fatalf("first full-window verdict %s", decisions[first].Verdict)
	}
	for i := first + 1; i <= first+cfg.Cooldown; i++ {
		if decisions[i].Verdict != VerdictStable || decisions[i].Reason != "cooldown" {
			t.Fatalf("obs %d: verdict %s reason %q during cooldown", i, decisions[i].Verdict, decisions[i].Reason)
		}
	}
	if last := decisions[first+cfg.Cooldown+1]; last.Verdict != VerdictSaturated {
		t.Fatalf("post-cooldown verdict %s (%s)", last.Verdict, last.Reason)
	}
}

// TestAnalyzerDeterminism pins that decisions are a pure function of the
// observation sequence: two analyzers fed the same mixed sequence produce
// byte-identical decision streams (the property that keeps -procs 1 and 8
// runs identical — the analyzer holds no clock and draws no randomness).
func TestAnalyzerDeterminism(t *testing.T) {
	seq := []Observation{
		steadyObs(), steadyObs(),
		{Offered: 1500, Completed: 1200, MeanRT: 1.2, P99RT: 2.5},
		{Offered: 2200, Completed: 1100, MeanRT: 3.5, P99RT: 9.0},
		{Offered: 2200, Completed: 1050, Rejected: 400, MeanRT: 2.8, P99RT: 7.0},
		steadyObs(),
		{Offered: 400, Completed: 400, MeanRT: 0.2, P99RT: 0.5},
		{Offered: 400, Completed: 400, MeanRT: 0.2, P99RT: 0.5},
		steadyObs(),
	}
	run := func() []Decision {
		a, err := NewAnalyzer(DefaultConfig(2.0))
		if err != nil {
			t.Fatal(err)
		}
		var out []Decision
		for _, o := range seq {
			out = append(out, a.Observe(o))
		}
		return out
	}
	base := run()
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d diverged:\n%+v\nvs\n%+v", i, got, base)
		}
	}
}

func TestLatencyOnlyDetectionWithGrowingCompletions(t *testing.T) {
	// Without arrival counts the backlog proxy is the negated completion
	// trend, so a window whose completions grew must not mask a sustained
	// breach: the breach alone is saturation when demand is untracked.
	a, err := NewAnalyzer(DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	var d Decision
	for _, completed := range []int{100, 200, 400} {
		d = a.Observe(Observation{Completed: completed, MeanRT: 4.0, P99RT: 11.0})
	}
	if d.Verdict != VerdictSaturated {
		t.Fatalf("sustained breach without arrival counts: verdict %s (%s)", d.Verdict, d.Reason)
	}
}

func TestVerdictStrings(t *testing.T) {
	if VerdictStable.String() != "stable" || VerdictSaturated.String() != "saturated" || VerdictHeadroom.String() != "headroom" {
		t.Fatal("verdict names wrong")
	}
}
