package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// flakySystem scripts failures and measurement overrides on top of a
// bowlSystem: each Apply/Measure call pops the head of its error queue (nil =
// succeed), and Measure pops nextMetrics overrides before falling back to the
// bowl surface.
type flakySystem struct {
	*bowlSystem
	applyErrs   []error
	measureErrs []error
	nextMetrics []system.Metrics
}

func (f *flakySystem) Apply(ctx context.Context, cfg config.Config) error {
	if len(f.applyErrs) > 0 {
		err := f.applyErrs[0]
		f.applyErrs = f.applyErrs[1:]
		if err != nil {
			return err
		}
	}
	return f.bowlSystem.Apply(ctx, cfg)
}

func (f *flakySystem) Measure(ctx context.Context) (system.Metrics, error) {
	if len(f.measureErrs) > 0 {
		err := f.measureErrs[0]
		f.measureErrs = f.measureErrs[1:]
		if err != nil {
			return system.Metrics{}, err
		}
	}
	if len(f.nextMetrics) > 0 {
		m := f.nextMetrics[0]
		f.nextMetrics = f.nextMetrics[1:]
		return m, nil
	}
	return f.bowlSystem.Measure(context.Background())
}

func resilientAgent(t *testing.T, sys system.System, res Resilience, extra AgentOptions) *Agent {
	t.Helper()
	o := DefaultOptions()
	o.Resilience = res
	extra.Options = o
	if extra.Seed == 0 {
		extra.Seed = 9
	}
	a, err := NewAgent(sys, extra)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestStepRetriesTransientApply(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	sys.applyErrs = []error{
		system.Transient(errors.New("reconfig glitch")),
		system.Transient(errors.New("reconfig glitch")),
	}
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTrace(32)
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 3}, AgentOptions{Telemetry: reg, Trace: trace})
	res, err := a.Step(context.Background())
	if err != nil {
		t.Fatalf("step with retries left: %v", err)
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", res.Attempts)
	}
	if res.Invalid || res.Degraded {
		t.Fatalf("recovered step marked bad: %+v", res)
	}
	if got := counterValue(t, reg, "rac_agent_retries_total"); got != 2 {
		t.Fatalf("retries counter = %v, want 2", got)
	}
	if n := countTraceKind(trace, telemetry.KindRetry); n != 2 {
		t.Fatalf("%d retry trace events, want 2", n)
	}
}

func TestStepFatalApplyStillAborts(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	sys.applyErrs = []error{errors.New("config rejected")}
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 5}, AgentOptions{})
	if _, err := a.Step(context.Background()); err == nil {
		t.Fatal("fatal apply error swallowed by the resilience layer")
	}
	if sys.applied != 0 {
		t.Fatal("fatal apply reached the system")
	}
}

func TestStepHoldsConfigWhenApplyExhausted(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	te := system.Transient(errors.New("controller down"))
	sys.applyErrs = []error{te, te, te}
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 3}, AgentOptions{})
	before := a.Config()
	res, err := a.Step(context.Background())
	if err != nil {
		t.Fatalf("exhausted transient apply aborted the step: %v", err)
	}
	if !res.Config.Equal(before) {
		t.Fatalf("step moved to %s despite failed apply", res.Config.Key())
	}
	if res.Action.Dir != 0 {
		t.Fatalf("action %+v, want keep", res.Action)
	}
	if sys.applied != 0 {
		t.Fatal("apply reached the system despite scripted failures")
	}
}

func TestStepDegradesWhenMeasureExhausted(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	reg := telemetry.NewRegistry()
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 2}, AgentOptions{Telemetry: reg})
	// One clean step to establish a believable response time.
	first, err := a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	te := system.Transient(errors.New("monitor wedged"))
	sys.measureErrs = []error{te, te}
	res, err := a.Step(context.Background())
	if err != nil {
		t.Fatalf("degraded step aborted: %v", err)
	}
	if !res.Degraded || !res.Invalid || res.InvalidReason != "no-data" {
		t.Fatalf("step not marked degraded: %+v", res)
	}
	if res.MeanRT != first.MeanRT {
		t.Fatalf("degraded MeanRT = %v, want last believable %v", res.MeanRT, first.MeanRT)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Attempts)
	}
	if got := counterValue(t, reg, "rac_agent_degraded_intervals_total"); got != 1 {
		t.Fatalf("degraded counter = %v, want 1", got)
	}
	// The next interval is clean again and the agent keeps tuning.
	if _, err := a.Step(context.Background()); err != nil {
		t.Fatalf("step after degradation: %v", err)
	}
}

// TestErrorBurstIntervalNotLearned is the reward-validity fix: an interval
// that mostly errored must not feed its misleading MeanRT into the window,
// the sample table or the Q-table.
func TestErrorBurstIntervalNotLearned(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTrace(32)
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 3, MinCompleted: 10, MaxErrorRatio: 0.5},
		AgentOptions{Telemetry: reg, Trace: trace})
	// The burst interval: 3 survivors with a great-looking MeanRT, 997 errors.
	sys.nextMetrics = []system.Metrics{{MeanRT: 0.05, Throughput: 0.1, Completed: 3, Errors: 997, IntervalSeconds: 300}}
	res, err := a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invalid || res.InvalidReason != "low-completion" {
		t.Fatalf("burst interval not rejected: %+v", res)
	}
	if res.MeanRT != 0.05 {
		t.Fatalf("raw MeanRT not reported: %v", res.MeanRT)
	}
	if sampleCount(a) != 0 {
		t.Fatalf("rejected interval entered the sample table: %d samples", sampleCount(a))
	}
	if a.window.Len() != 0 {
		t.Fatal("rejected interval entered the reference window")
	}
	if got := counterValue(t, reg, "rac_agent_invalid_intervals_total"); got != 1 {
		t.Fatalf("invalid counter = %v, want 1", got)
	}
	if n := countTraceKind(trace, telemetry.KindInvalid); n != 1 {
		t.Fatalf("%d invalid trace events, want 1", n)
	}
	// High error ratio with plenty of completions is rejected too.
	sys.nextMetrics = []system.Metrics{{MeanRT: 0.05, Throughput: 5, Completed: 300, Errors: 700, IntervalSeconds: 300}}
	res, err = a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invalid || res.InvalidReason != "error-ratio" {
		t.Fatalf("error-ratio interval not rejected: %+v", res)
	}
}

// TestRejectionHeavyIntervalStillLearned pins the rejected ≠ error
// distinction inside the invalid-interval logic: an interval where the
// admission gate turned most arrivals away (plus a few stray errors) is the
// gate doing its job — valid learning signal, not a poisoned measurement —
// so it must enter the sample table and the reference window like any clean
// interval.
func TestRejectionHeavyIntervalStillLearned(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 3, MinCompleted: 10, MaxErrorRatio: 0.5},
		AgentOptions{})
	// 40 completions, 900 gate rejections, 5 genuine errors: under the old
	// conflated accounting the 5 errors plus the low completion count would
	// have invalidated the interval outright.
	sys.nextMetrics = []system.Metrics{{
		MeanRT: 0.3, Throughput: 0.13, Completed: 40, Rejected: 900, Errors: 5,
		IntervalSeconds: 300,
	}}
	res, err := a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalid {
		t.Fatalf("rejection-heavy interval misclassified invalid: %+v", res)
	}
	if sampleCount(a) != 1 {
		t.Fatalf("rejection-heavy interval produced no Q-update (samples=%d)", sampleCount(a))
	}
	if a.window.Len() != 1 {
		t.Fatal("rejection-heavy interval did not enter the reference window")
	}
	// The same interval with the rejections recast as errors is still thrown
	// out — the distinction, not a loosened threshold, is what changed.
	sys.nextMetrics = []system.Metrics{{
		MeanRT: 0.3, Throughput: 0.13, Completed: 40, Errors: 905,
		IntervalSeconds: 300,
	}}
	res, err = a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invalid || res.InvalidReason != "error-ratio" {
		t.Fatalf("error-heavy interval not rejected: %+v", res)
	}
}

func TestOutlierMeasurementRejected(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 3, OutlierFactor: 6}, AgentOptions{})
	// Fill the reference window with believable measurements.
	for i := 0; i < 4; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	base := sys.rt(sys.Config())
	sys.nextMetrics = []system.Metrics{{MeanRT: 20 * base, Throughput: 50, Completed: 5000, IntervalSeconds: 300}}
	res, err := a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invalid || res.InvalidReason != "outlier" {
		t.Fatalf("20x outlier not rejected: %+v", res)
	}
}

func TestProducerFlaggedMeasurementRejected(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 1}, AgentOptions{})
	sys.nextMetrics = []system.Metrics{{MeanRT: 1, Completed: 100, Invalid: true, InvalidReason: "degraded-driver", IntervalSeconds: 300}}
	res, err := a.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invalid || res.InvalidReason != "degraded-driver" {
		t.Fatalf("producer-flagged interval not honored: %+v", res)
	}
}

func TestRollbackToLastKnownGood(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTrace(64)
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 3, RollbackAfter: 2},
		AgentOptions{Telemetry: reg, Trace: trace})
	// Healthy phase: establishes a last-known-good configuration.
	for i := 0; i < 5; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if a.lastGood == nil {
		t.Fatal("healthy steps did not record a last-known-good config")
	}
	good := a.lastGood.Clone()
	// Context collapses: every configuration now violates the SLA.
	sys.shift = 50
	rolled := false
	for i := 0; i < 6 && !rolled; i++ {
		res, err := a.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rolled = res.RolledBack
	}
	if !rolled {
		t.Fatal("safety guard never rolled back under sustained violation")
	}
	if !a.Config().Equal(good) {
		t.Fatalf("agent at %s after rollback, want %s", a.Config().Key(), good.Key())
	}
	if !sys.Config().Equal(good) {
		t.Fatal("rollback did not reach the system")
	}
	if got := counterValue(t, reg, "rac_agent_rollbacks_total"); got < 1 {
		t.Fatal("rollback counter not incremented")
	}
	if n := countTraceKind(trace, telemetry.KindRollback); n < 1 {
		t.Fatal("no rollback trace event")
	}
}

func TestRetryBackoffDoublesThroughSleepHook(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	te := system.Transient(errors.New("glitch"))
	sys.applyErrs = []error{te, te, te}
	var pauses []time.Duration
	a := resilientAgent(t, sys, Resilience{MaxAttempts: 4, RetryBackoff: 100 * time.Millisecond},
		AgentOptions{Sleep: func(d time.Duration) { pauses = append(pauses, d) }})
	if _, err := a.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(pauses) != len(want) {
		t.Fatalf("pauses %v, want %v", pauses, want)
	}
	for i := range want {
		if pauses[i] != want[i] {
			t.Fatalf("pauses %v, want %v", pauses, want)
		}
	}
}

// TestZeroResilienceAbortsLikeLegacy pins the compatibility contract: with
// the zero policy, a transient failure still aborts the step.
func TestZeroResilienceAbortsLikeLegacy(t *testing.T) {
	sys := &flakySystem{bowlSystem: newBowlSystem(bowlTargets)}
	sys.applyErrs = []error{system.Transient(errors.New("glitch"))}
	a := resilientAgent(t, sys, Resilience{}, AgentOptions{})
	if _, err := a.Step(context.Background()); err == nil {
		t.Fatal("zero resilience policy swallowed a transient error")
	}
}

// TestResilientTrajectoryMatchesLegacyOnCleanRuns pins the byte-identity
// contract: on a fault-free system the resilient defaults change nothing.
func TestResilientTrajectoryMatchesLegacyOnCleanRuns(t *testing.T) {
	run := func(res Resilience) []StepResult {
		o := DefaultOptions()
		o.Resilience = res
		a, err := NewAgent(newBowlSystem(bowlTargets), AgentOptions{Options: o, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var out []StepResult
		for i := 0; i < 20; i++ {
			r, err := a.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	legacy := run(Resilience{})
	resilient := run(DefaultResilience())
	for i := range legacy {
		l, r := legacy[i], resilient[i]
		if l.MeanRT != r.MeanRT || l.Reward != r.Reward || !l.Config.Equal(r.Config) || l.Action != r.Action {
			t.Fatalf("step %d diverged on a clean run:\n legacy    %+v\n resilient %+v", i+1, l, r)
		}
	}
}

func counterValue(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func countTraceKind(trace *telemetry.Trace, kind telemetry.EventKind) int {
	n := 0
	for _, ev := range trace.Snapshot() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
