// Package queueing implements exact Mean Value Analysis (MVA) for closed,
// single-class queueing networks with load-dependent service stations. It is
// the analytical counterpart of the webtier simulator: the same configuration
// maps onto a network of load-dependent stations, and the solver returns the
// steady-state response time and throughput in microseconds instead of
// simulated minutes.
//
// The load-dependent recursion follows Reiser & Lavenberg's exact MVA with
// marginal queue-length probabilities:
//
//	R_i(n)   = Σ_{j=1..n} (j/μ_i(j)) · p_i(j-1 | n-1)
//	X(n)     = n / (Z + Σ_i R_i(n))
//	p_i(j|n) = (X(n)/μ_i(j)) · p_i(j-1 | n-1)          j = 1..n
//	p_i(0|n) = 1 − Σ_{j=1..n} p_i(j|n)
//
// Fixed-rate and multi-server stations are special cases of the rate
// function μ_i(j).
package queueing

// Station is one service center of a closed network.
type Station struct {
	// Name identifies the station in results.
	Name string
	// Demand is the mean service demand per visit in seconds (at rate 1).
	Demand float64
	// Rate returns the relative service rate with j jobs present (j >= 1);
	// the absolute completion rate is Rate(j)/Demand. A nil Rate means a
	// fixed-rate (single-server) station, i.e. Rate(j) = 1.
	//
	// Rate must be a pure function of j for the duration of one solve: the
	// same j returns the same bits however often, and in whatever order, it
	// is called. The solvers rely on it to call Rate fewer times than they
	// need its value — SolveApprox remembers recent rates and skips whole
	// periods of a repeating iteration. State a Rate reads may change between
	// solves, never during one. WebsiteSolver goes further and reuses whole
	// solutions across solves, so every piece of its per-call state that a
	// rate closure reads is part of its memo key or of the memo's scope.
	Rate func(j int) float64
}

// MultiServer returns a rate function for a station with c parallel servers:
// Rate(j) = min(j, c).
func MultiServer(c int) func(int) float64 {
	return func(j int) float64 {
		if j < c {
			return float64(j)
		}
		return float64(c)
	}
}

// Result is the steady-state solution of the network.
type Result struct {
	// N is the population the network was solved for.
	N int
	// Throughput is the system throughput X(N) in jobs/second.
	Throughput float64
	// ResponseTime is the total residence time Σ R_i in seconds (excluding
	// think time).
	ResponseTime float64
	// StationResidence holds per-station residence times in station order.
	StationResidence []float64
	// StationUtilization holds per-station utilization estimates
	// (1 − p_i(0|N)).
	StationUtilization []float64
}

// Solve runs exact load-dependent MVA for a closed network with population n
// and think time z seconds. It uses a private Solver, so the returned Result
// owns its slices; repeated solves should hold a Solver and call its method
// to reuse scratch buffers.
func Solve(n int, z float64, stations []Station) (Result, error) {
	var sv Solver
	return sv.Solve(n, z, stations)
}

// rate returns the station's relative rate with j jobs, defaulting to 1.
func (s Station) rate(j int) float64 {
	if s.Rate == nil {
		return 1
	}
	r := s.Rate(j)
	if r <= 0 {
		// A zero rate with jobs present would deadlock the recursion; treat
		// it as a minimal trickle instead.
		return 1e-9
	}
	return r
}
