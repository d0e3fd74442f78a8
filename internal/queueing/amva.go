package queueing

// SolveApprox solves the closed network with a Schweitzer-style approximate
// MVA extended to load-dependent stations: each station's service rate is
// evaluated at its current mean queue length rounded to a whole job, and the
// classic Schweitzer residence estimate
//
//	R_i = (D_i / rate_i(Q_i)) · (1 + Q_i·(N−1)/N)
//
// is iterated with damping 0.5 until no queue length moves by 1e-9 or more,
// for at most 2000 iterations. The cap is not a formality: when an occupancy
// sits near x.5 its rounding flips from one iteration to the next and the
// iteration never settles. It falls onto a periodic orbit instead — about
// twenty iterates that repeat exactly in float64 — and about 45 % of the
// website surface's solves end there. The result is then the iterate the cap
// reaches, one phase of that orbit. The solver recognizes the repeat and skips
// whole periods, so it returns that iterate bit for bit without walking to it.
//
// Exact load-dependent MVA (Solve) is numerically fragile for large
// populations near saturation — the marginal idle probabilities underflow —
// while the fixed point below is stable for any population and converges to
// the same answers in the regimes where both work. The website surface uses
// this solver.
// It uses a private Solver, so the returned Result owns its slices; repeated
// solves should hold a Solver and call its method to reuse scratch buffers.
func SolveApprox(n int, z float64, stations []Station) (Result, error) {
	var sv Solver
	return sv.SolveApprox(n, z, stations)
}
