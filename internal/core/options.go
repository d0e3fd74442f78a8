// Package core implements the paper's contribution: RAC, a reinforcement-
// learning agent for online auto-configuration of multi-tier web systems.
//
// The agent is assembled from three components mirroring the paper's
// architecture (§3.1): a performance monitor (the System.Measure calls), an
// RL-based decision maker (a Q-table over configuration states, retrained in
// batch every interval — Algorithms 1 and 3), and a configuration controller
// (System.Apply). Policy initialization (Algorithm 2) samples a coarse
// grouped sublattice, fits a polynomial-regression predictor, and trains an
// initial group-level Q-table offline; the resulting Policy seeds the online
// Q-table for states it has never visited.
package core

import (
	"fmt"

	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/system"
)

// Options are the agent's hyper-parameters. The defaults are the paper's
// published settings.
type Options struct {
	// SLASeconds is the reference response time of the service-level
	// agreement; the immediate reward is SLASeconds − measuredRT (§3.2).
	SLASeconds float64

	// Online are the online learning parameters (paper: α=0.1, γ=0.9,
	// ε=0.05).
	Online mdp.Params
	// Batch are the per-interval batch retraining parameters (paper: ε=0.1).
	Batch mdp.Params

	// ViolationThreshold is v_thr: the relative deviation of the current
	// response time from the recent average that counts as a violation
	// (paper: 0.3).
	ViolationThreshold float64
	// SwitchThreshold is s_thr: consecutive violations before the agent
	// declares a context change and switches initial policy (paper: 5).
	SwitchThreshold int
	// Window is n: how many recent measurements form the reference average
	// (paper: 10).
	Window int

	// BatchSweeps bounds the per-interval batch retraining sweeps.
	BatchSweeps int
	// BatchStepsPerState was the sampled retraining sweep's trajectory length.
	// The solver does not use it; it stays only because the benchmark ledger
	// under benchmark/ still reads it.
	BatchStepsPerState int
	// BatchTheta is the retraining convergence threshold: the largest change
	// a sweep may make to any Q entry and still count as converged.
	BatchTheta float64

	// Resilience is the fault-handling policy (retry, invalid-measurement
	// rejection, rollback-to-safe). The zero value reproduces the
	// pre-resilience agent; DefaultOptions enables retries and degraded-
	// interval rejection, which never fire on clean runs.
	Resilience Resilience

	// CapacityCost prices elastic capacity into the reward when positive:
	// r = SLA − responseTime − CapacityCost·level, where level is the
	// interval's Metrics.CapacityUnits (the vmenv capacity ordinal). Zero —
	// the default — reproduces the paper's reward exactly; without a price a
	// capacity-aware agent would always provision the biggest VM.
	CapacityCost float64
}

// DefaultOptions returns the paper's hyper-parameters with an SLA of two
// seconds (positive reward at well-configured operating points in every
// Table 2 context, negative when misconfigured).
func DefaultOptions() Options {
	return Options{
		SLASeconds:         2.0,
		Online:             mdp.DefaultOnline(),
		Batch:              mdp.DefaultOffline(),
		ViolationThreshold: 0.3,
		SwitchThreshold:    5,
		Window:             10,
		BatchSweeps:        12,
		BatchStepsPerState: 6,
		BatchTheta:         0.01,
		Resilience: Resilience{
			MaxAttempts:   3,
			MinCompleted:  10,
			MaxErrorRatio: 0.5,
		},
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.SLASeconds <= 0 {
		return fmt.Errorf("core: non-positive SLA %v", o.SLASeconds)
	}
	if err := o.Online.Validate(); err != nil {
		return fmt.Errorf("core: online params: %w", err)
	}
	if err := o.Batch.Validate(); err != nil {
		return fmt.Errorf("core: batch params: %w", err)
	}
	if o.ViolationThreshold <= 0 {
		return fmt.Errorf("core: non-positive violation threshold %v", o.ViolationThreshold)
	}
	if o.SwitchThreshold < 1 {
		return fmt.Errorf("core: switch threshold %d < 1", o.SwitchThreshold)
	}
	if o.Window < 1 {
		return fmt.Errorf("core: window %d < 1", o.Window)
	}
	if err := o.Resilience.Validate(); err != nil {
		return err
	}
	if o.CapacityCost < 0 {
		return fmt.Errorf("core: negative capacity cost %v", o.CapacityCost)
	}
	return nil
}

// Reward converts a measured mean response time into the paper's immediate
// reward r = SLA − perf.
func (o Options) Reward(meanRT float64) float64 {
	return o.SLASeconds - meanRT
}

// RewardOf computes the immediate reward from a full measurement: the paper's
// response-time reward, less the capacity price when CapacityCost is set.
//
// An interval that completed nothing while the admission gate healthily
// turned arrivals away (Completed == 0, Rejected > 0, no errors) carries no
// response-time signal: producers report a pessimistic stand-in MeanRT for
// jammed systems, but resilience's validity rules say rejected ≠ error — the
// gate deliberately trading requests away is not the system failing. Scoring
// that stand-in would double-penalize every rejection as an SLA miss, so the
// reward falls back to the neutral SLA point (zero base reward), matching the
// degraded-interval convention.
func (o Options) RewardOf(m system.Metrics) float64 {
	rt := m.MeanRT
	if m.Completed == 0 && m.Rejected > 0 && m.Errors == 0 {
		rt = o.SLASeconds
	}
	r := o.Reward(rt)
	if o.CapacityCost > 0 && m.CapacityUnits > 0 {
		r -= o.CapacityCost * float64(m.CapacityUnits)
	}
	return r
}
