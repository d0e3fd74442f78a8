package queueing

import (
	"math"

	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// WebsiteResult is the analytic steady-state prediction for a configured
// three-tier website.
type WebsiteResult struct {
	// MeanRT is the predicted mean response time in seconds.
	MeanRT float64
	// Throughput is the predicted completion rate in requests/second.
	Throughput float64
	// Result is the final underlying network solution.
	Network Result
	// IOFactor is the converged DB cache-miss amplification.
	IOFactor float64
}

// SolveWebsite predicts the steady-state performance of the simulated
// three-tier website analytically. The configuration maps onto a closed
// network of three load-dependent stations (web CPU, app/db CPU, disk) plus
// a delay station for think time. Occupancy-dependent quantities (worker
// pools, open connections, session memory, hence the DB I/O factor and web
// thrash) are resolved by a short fixed-point iteration: solve, re-estimate
// occupancies from the solution, repeat.
//
// The analytic model deliberately omits the simulator's transient mechanisms
// (GC stalls, listen-backlog retransmits, pool spawn latency); it is the
// smooth surface those transients fluctuate around, which is what the policy
// initializer needs.
// It uses a private WebsiteSolver per call; repeated evaluations (lattice
// sweeps) should hold a WebsiteSolver and call its Solve method to reuse the
// station closures, the scratch buffers and the memo of solved networks.
func SolveWebsite(cal webtier.Calibration, p webtier.Params, w tpcw.Workload, level vmenv.Level) (WebsiteResult, error) {
	return NewWebsiteSolver().Solve(cal, p, w, level)
}

// boundedBy limits a station's rate with fewer jobs than cores: each job can
// use at most one core, so rate scales with j until the core count.
func boundedBy(j, cores int) float64 {
	if j < cores {
		return float64(j) / float64(cores)
	}
	return 1
}

// efficiency mirrors webtier's context-switch model. It takes the calibration
// by pointer: the rate closures call it on every rate evaluation, and copying
// the whole Calibration each time was most of their cost.
func efficiency(cal *webtier.Calibration, active, vcpus int) float64 {
	excess := float64(active - vcpus)
	if excess <= 0 {
		return 1
	}
	return 1 / (1 + cal.CtxSwitchCoeff*excess + cal.CtxSwitchQuad*excess*excess)
}

// estimateConns predicts the number of open keep-alive connections from the
// hold time per cycle.
// rt is the last solution's response time, zero on the first iteration.
func estimateConns(p webtier.Params, w tpcw.Workload, z, rt float64) float64 {
	hold := tpcw.MeanThinkTimeSeconds * (1 - math.Exp(-p.KeepAliveTimeoutSec/tpcw.MeanThinkTimeSeconds))
	return float64(w.Clients) * (hold + rt) / (z + rt)
}

// estimateSessions predicts live server-side session objects: one per active
// client plus abandoned sessions lingering until their timeout. x is the last
// solution's throughput, zero on the first iteration.
func estimateSessions(p webtier.Params, w tpcw.Workload, z, x float64) float64 {
	live := float64(w.Clients)
	if x <= 0 {
		x = float64(w.Clients) / (z + 1)
	}
	endRate := x / float64(tpcw.MeanSessionLength)
	return live + endRate*p.SessionTimeoutMin*60
}

// webThrash mirrors webtier's web-VM memory penalty.
func webThrash(cal webtier.Calibration, workers, conns float64) float64 {
	used := cal.WebBaseMemMB + cal.WorkerMemMB*workers + cal.ConnMemMB*conns
	over := used/cal.WebMemMB - 1
	if over <= 0 {
		return 1
	}
	thrash := 1 + cal.ThrashCoeff*math.Pow(over, cal.ThrashExponent)
	if cal.ThrashMax > 1 && thrash > cal.ThrashMax {
		thrash = cal.ThrashMax
	}
	return thrash
}

// dbIOFactor mirrors webtier's buffer-cache model.
func dbIOFactor(cal webtier.Calibration, level vmenv.Level, threads, sessions float64) float64 {
	used := cal.AppBaseMemMB + cal.ThreadMemMB*threads + cal.SessionMemMB*sessions
	cache := float64(level.MemoryMB) - used
	if cache < cal.DBMinCacheMB {
		cache = cal.DBMinCacheMB
	}
	return math.Pow(cal.DBRefCacheMB/cache, cal.DBIOExponent)
}
