package main

import (
	"context"
	"io"
	"sync/atomic"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/system"
)

// tracedSystem records a span around every Apply and Measure of the system it
// wraps. It is how the agent step and the fleet tenant-step are split into
// apply / measure / everything-else from outside the program: the agent calls
// the system, the benchmark owns the system.
//
// cause names the span that is currently driving this system (the agent step
// on the simulator, the round on the fleet); the driver stores it before the
// call that leads here. measure is the span name for Measure, which says what
// the backend spends that time in: "webtier.Measure" on the simulator,
// "queueing.Measure" on the analytic backend.
type tracedSystem struct {
	inner   system.System
	tr      *tracer
	cause   *atomic.Int64
	measure string
}

func (s *tracedSystem) Space() *config.Space  { return s.inner.Space() }
func (s *tracedSystem) Config() config.Config { return s.inner.Config() }

func (s *tracedSystem) Apply(ctx context.Context, cfg config.Config) error {
	sp := s.tr.start(s.cause.Load(), "system.Apply", "")
	defer sp.end()
	return s.inner.Apply(ctx, cfg)
}

func (s *tracedSystem) Measure(ctx context.Context) (system.Metrics, error) {
	sp := s.tr.start(s.cause.Load(), s.measure, "")
	defer sp.end()
	return s.inner.Measure(ctx)
}

// traceSystem wraps inner, forwarding exactly the optional interfaces inner
// implements: the fleet type-asserts Snapshottable before checkpointing and
// Adjustable before attaching a scenario, so a decorator that always claimed
// them would change what the program does.
func traceSystem(inner system.System, tr *tracer, cause *atomic.Int64, measure string) system.System {
	base := &tracedSystem{inner: inner, tr: tr, cause: cause, measure: measure}
	adj, isAdj := inner.(system.Adjustable)
	snap, isSnap := inner.(system.Snapshottable)
	switch {
	case isAdj && isSnap:
		return struct {
			*tracedSystem
			system.Adjustable
			system.Snapshottable
		}{base, adj, snap}
	case isAdj:
		return struct {
			*tracedSystem
			system.Adjustable
		}{base, adj}
	case isSnap:
		return struct {
			*tracedSystem
			system.Snapshottable
		}{base, snap}
	}
	return base
}

// timedTuner times every Step of the agent it wraps (the fig05-sim latency
// samples) and, when tracing, opens the "core.Agent.Step" span that the
// system spans hang under.
type timedTuner struct {
	inner  core.Tuner
	tr     *tracer
	parent int64
	cause  *atomic.Int64
	steps  []unit
}

func (t *timedTuner) Step(ctx context.Context) (core.StepResult, error) {
	sp := t.tr.start(t.parent, "core.Agent.Step", "")
	if t.cause != nil {
		t.cause.Store(sp.id)
	}
	watch := startWatch()
	res, err := t.inner.Step(ctx)
	t.steps = append(t.steps, watch.stop())
	sp.end()
	return res, err
}

// Close forwards to agents that own a background learner (the harness closes
// any tuner that is an io.Closer).
func (t *timedTuner) Close() error {
	if c, ok := t.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
