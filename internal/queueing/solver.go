package queueing

import (
	"errors"
	"fmt"
	"math"

	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// Solver carries reusable scratch buffers for repeated network solves. Policy
// initialization sweeps the analytic surface over thousands of lattice
// points; allocating the marginal-probability and queue-length buffers from a
// solver instead of per call keeps that inner loop allocation-free.
//
// The slices inside a Result returned by a Solver method are owned by the
// Solver and remain valid only until its next call; callers that retain a
// Result across calls must copy them. The package-level Solve and SolveApprox
// wrappers use a private Solver per call, so their results have no such
// aliasing. A Solver is not safe for concurrent use; parallel sweeps give
// each worker its own.
type Solver struct {
	flat     []float64   // backing storage for marg
	marg     [][]float64 // per-station marginal queue-length probabilities
	q        []float64   // approximate-MVA mean queue lengths
	seen     []float64   // approximate-MVA saved iterate for repeat detection
	rates    []rateMemo  // approximate-MVA per-station rates by occupancy
	resid    []float64   // per-station residence scratch
	residOut []float64   // Result.StationResidence backing
	utilOut  []float64   // Result.StationUtilization backing

	// approxDone, when non-nil, sees every SolveApprox call's inputs, result
	// and loop exit just before the divergence check. Tests set it.
	approxDone func(n int, z float64, stations []Station, res Result, end approxEnd)
}

// approxEnd records how a SolveApprox loop stopped.
type approxEnd uint8

const (
	endCapped    approxEnd = iota // ran all maxIter iterations
	endConverged                  // an iteration moved no occupancy by tol
	endOrbit                      // q repeated in phase with the cap; stopped there
	endOrbitTail                  // q repeated; skipped whole periods, ran the rest
)

// rateMemo remembers the last two (occupancy, rate) pairs one station's rate
// function returned during a SolveApprox call, with the station's Demand/rate
// beside each rate. Approximate MVA evaluates each rate at a rounded occupancy
// that rarely moves, and on a periodic orbit flips between two neighbouring
// values, so two entries catch nearly every call. A hit reads its slot in
// place; a miss overwrites the older of the two. Occupancies start at 1, so
// j == 0 marks an empty entry.
type rateMemo struct {
	j              [2]int
	rate           [2]float64
	demandOverRate [2]float64
	older          int // the slot the next miss overwrites
}

// at returns the memo slot holding s.rate(j) and s.Demand/s.rate(j),
// evaluating the rate function only on a miss. Reusing a value is exact
// because a Rate is a pure function of j (see Station.Rate) and Demand is
// fixed for the call.
func (m *rateMemo) at(s *Station, j int) int {
	if j == m.j[0] {
		return 0
	}
	if j == m.j[1] {
		return 1
	}
	return m.miss(s, j)
}

// miss evaluates s.rate(j) into the older slot and returns that slot; kept
// out of at so the hits inline.
func (m *rateMemo) miss(s *Station, j int) int {
	k := m.older
	r := s.rate(j)
	m.j[k], m.rate[k], m.demandOverRate[k] = j, r, s.Demand/r
	m.older = 1 - k
	return k
}

// occupancy is the job count approximate MVA evaluates a station's rate at:
// its mean queue length q rounded half away from zero, plus one, clamped to
// [1, n]. For q ≥ 0 the rounding equals math.Round without its bit
// manipulation: int(q) truncates to ⌊q⌋, q − ⌊q⌋ is exact, and a fraction of
// one half or more rounds up. Every q SolveApprox passes is ≥ 0 (it starts at
// n/(k+1) and a damped step never goes below half of it); NaN and ±Inf end in
// the clamp at 1, as under math.Round.
func occupancy(q float64, n int) int {
	at := int(q)
	if q-float64(at) >= 0.5 {
		at++
	}
	at++
	if at < 1 {
		at = 1
	}
	if at > n {
		at = n
	}
	return at
}

// NewSolver returns an empty solver; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// grow returns buf resized to length k, reallocating only when it has never
// been that large. Contents are unspecified; callers overwrite every element.
func grow(buf []float64, k int) []float64 {
	if cap(buf) < k {
		return make([]float64, k)
	}
	return buf[:k]
}

func validate(n int, z float64, stations []Station) error {
	if n < 1 {
		return fmt.Errorf("queueing: population %d < 1", n)
	}
	if z < 0 {
		return errors.New("queueing: negative think time")
	}
	if len(stations) == 0 {
		return errors.New("queueing: no stations")
	}
	for _, s := range stations {
		if s.Demand < 0 {
			return fmt.Errorf("queueing: station %q has negative demand", s.Name)
		}
	}
	return nil
}

// Solve runs exact load-dependent MVA on the solver's scratch buffers. It
// computes exactly what the package-level Solve computes; see the Solver type
// for the result-aliasing contract.
func (sv *Solver) Solve(n int, z float64, stations []Station) (Result, error) {
	if err := validate(n, z, stations); err != nil {
		return Result{}, err
	}

	k := len(stations)
	// p[i][j] = p_i(j | current population); updated in place per iteration.
	sv.flat = grow(sv.flat, k*(n+1))
	for i := range sv.flat {
		sv.flat[i] = 0
	}
	if cap(sv.marg) < k {
		sv.marg = make([][]float64, k)
	}
	p := sv.marg[:k]
	for i := range p {
		p[i] = sv.flat[i*(n+1) : (i+1)*(n+1)]
		p[i][0] = 1
	}
	sv.resid = grow(sv.resid, k)
	resid := sv.resid

	var x float64
	for pop := 1; pop <= n; pop++ {
		var total float64
		for i, s := range stations {
			if s.Demand == 0 {
				resid[i] = 0
				continue
			}
			var r float64
			for j := 1; j <= pop; j++ {
				r += float64(j) * s.Demand / s.rate(j) * p[i][j-1]
			}
			resid[i] = r
			total += r
		}
		x = float64(pop) / (z + total)
		// Update marginal probabilities from high to low so p[i][j-1] is
		// still the (pop-1)-population value when computing p[i][j].
		for i, s := range stations {
			if s.Demand == 0 {
				continue
			}
			var sum float64
			for j := pop; j >= 1; j-- {
				p[i][j] = x * s.Demand / s.rate(j) * p[i][j-1]
				sum += p[i][j]
			}
			if sum > 1 {
				// Numerical guard: renormalize rather than emit a negative
				// idle probability.
				for j := 1; j <= pop; j++ {
					p[i][j] /= sum
				}
				sum = 1
			}
			p[i][0] = 1 - sum
		}
	}

	sv.residOut = grow(sv.residOut, k)
	sv.utilOut = grow(sv.utilOut, k)
	res := Result{
		N:                  n,
		Throughput:         x,
		StationResidence:   sv.residOut,
		StationUtilization: sv.utilOut,
	}
	for i := range stations {
		res.StationResidence[i] = resid[i]
		res.ResponseTime += resid[i]
		res.StationUtilization[i] = 1 - p[i][0]
	}
	if math.IsNaN(res.Throughput) || math.IsInf(res.Throughput, 0) {
		return Result{}, errors.New("queueing: MVA diverged")
	}
	return res, nil
}

// SolveApprox runs Schweitzer-style approximate MVA on the solver's scratch
// buffers. It computes exactly what the package-level SolveApprox computes;
// see the Solver type for the result-aliasing contract.
//
// An iteration is a pure function of q (the rate functions must be pure
// functions of j), so once q repeats bit for bit the rest of the walk to the
// cap is known: Brent's scheme keeps one saved iterate, refreshed at
// power-of-two distances, and a repeat with period p skips whole periods. The
// result is the one the full 2000-iteration walk returns, bit for bit. The
// same purity lets each station's last two rates be reused (rateMemo); the
// memo is emptied on entry, since the rate functions may read state that
// changes between calls, and so may Demand.
func (sv *Solver) SolveApprox(n int, z float64, stations []Station) (Result, error) {
	if err := validate(n, z, stations); err != nil {
		return Result{}, err
	}

	k := len(stations)
	sv.q = grow(sv.q, k)
	sv.seen = grow(sv.seen, k)
	sv.resid = grow(sv.resid, k)
	if cap(sv.rates) < k {
		sv.rates = make([]rateMemo, k)
	}
	q, seen, resid, rates := sv.q, sv.seen, sv.resid, sv.rates[:k]
	for i := range q {
		q[i] = float64(n) / float64(k+1)
	}
	copy(seen, q)
	clear(rates)

	const (
		maxIter = 2000
		damping = 0.5
		tol     = 1e-9
	)
	var x float64
	scale := float64(n-1) / float64(n)
	end := endCapped
	seenAt, span := 0, 1 // seen holds the iterate of iteration seenAt
	for iter := 0; iter < maxIter; iter++ {
		if iter > seenAt && sameBits(q, seen) {
			// The walk is periodic from seenAt on with period p; the cap's
			// phase is rem iterations short of the cap. No iterate on the
			// orbit met tol, or the loop would have stopped on it. After a
			// jump fewer than p iterations remain, so this cannot fire again.
			p := iter - seenAt
			rem := (maxIter - iter) % p
			if rem == 0 {
				// resid and x from iteration iter−1 are those of the cap's
				// last iteration, and q is the cap's final iterate.
				end = endOrbit
				break
			}
			iter, end = maxIter-rem, endOrbitTail
		} else if iter-seenAt == span {
			copy(seen, q)
			seenAt, span = iter, 2*span
		}
		var total float64
		for i := range stations {
			s := &stations[i]
			if s.Demand == 0 {
				resid[i] = 0
				continue
			}
			// Evaluate the service rate at the current mean occupancy. The
			// memo's Demand/rate is the division this expression evaluates
			// first, so the product is the same bits.
			m := &rates[i]
			resid[i] = m.demandOverRate[m.at(s, occupancy(q[i], n))] * (1 + q[i]*scale)
			total += resid[i]
		}
		x = float64(n) / (z + total)
		var drift float64
		for i := range stations {
			want := x * resid[i]
			delta := want - q[i]
			if d := math.Abs(delta); d > drift {
				drift = d
			}
			q[i] += damping * delta
		}
		if drift < tol {
			end = endConverged
			break
		}
	}

	sv.residOut = grow(sv.residOut, k)
	sv.utilOut = grow(sv.utilOut, k)
	res := Result{
		N:                  n,
		Throughput:         x,
		StationResidence:   sv.residOut,
		StationUtilization: sv.utilOut,
	}
	for i := range stations {
		s := &stations[i]
		res.StationResidence[i] = resid[i]
		res.ResponseTime += resid[i]
		res.StationUtilization[i] = 0
		if s.Demand > 0 {
			m := &rates[i]
			res.StationUtilization[i] = math.Min(1, x*s.Demand/m.rate[m.at(s, occupancy(q[i], n))])
		}
	}
	if sv.approxDone != nil {
		sv.approxDone(n, z, stations, res, end)
	}
	if math.IsNaN(res.Throughput) || math.IsInf(res.Throughput, 0) {
		return Result{}, errors.New("queueing: approximate MVA diverged")
	}
	return res, nil
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// WebsiteSolver evaluates the analytic website surface with fully reused
// machinery: the three stations and their rate closures are bound once to the
// solver's per-call state, so a sweep over a configuration lattice performs
// no per-call station or scratch allocation (only the small slice copy that
// lets the returned WebsiteResult outlive the solver's next call, and the
// memo's amortized growth).
//
// Each Solve runs five approximate-MVA solves of a network, and a lattice
// sweep meets the same network many times over: the spare-pool settings reach
// the model only through clamped pool and memory terms, so on a Table-2
// context the 1 280 solves of the 256 coarse points have about 400 distinct
// inputs. The solver therefore keeps an exact memo of its network solutions,
// keyed by every input one solve reads — the population, the think time, the
// bits of the three station demands, and the per-call state the rate closures
// read (the web thrash factor and the MaxClients and MaxThreads caps) — and
// scoped to one (calibration, level) pair: a call with another pair empties
// it. A new per-call field a rate closure reads must join the key. The memo
// holds at most memoLimit networks and empties itself when a new one would
// exceed that, the rule of surface.NewBounded; its values are pure functions
// of their keys, so a flush can cost a recomputation but never change a bit.
//
// A WebsiteSolver is not safe for concurrent use; parallel sweeps give each
// worker its own.
type WebsiteSolver struct {
	sv       Solver
	stations [3]Station

	// Per-call state read by the station rate closures.
	cal        webtier.Calibration
	level      vmenv.Level
	maxClients int
	maxThreads int
	thrash     float64

	// memo holds the networks solved under cal and level; nil until the
	// first solve.
	memo map[networkKey]networkSolution

	// Backing arrays for sv's three-station buffers (see NewWebsiteSolver).
	scratch [5][3]float64
	rates   [3]rateMemo
}

// memoLimit bounds a WebsiteSolver's memo. One sweep of a Table-2 context's
// 256 coarse points meets 395–415 distinct networks, so the memo holds a
// whole sweep with room to spare.
const memoLimit = 1024

// networkKey is every input one approximate-MVA solve of the website network
// reads inside a (calibration, level) scope. Floats are keyed by their bits,
// so a hit has the same inputs bit for bit.
type networkKey struct {
	n                      int
	z                      uint64
	demand                 [3]uint64
	thrash                 uint64
	maxClients, maxThreads int
}

// networkSolution is what the website solve reads from one network solution.
type networkSolution struct {
	throughput, responseTime float64
	residence, utilization   [3]float64
}

// NewWebsiteSolver returns a website solver with its stations bound.
func NewWebsiteSolver() *WebsiteSolver {
	ws := &WebsiteSolver{}
	ws.stations[0] = Station{
		Name: "web",
		Rate: func(j int) float64 {
			if j > ws.maxClients {
				j = ws.maxClients
			}
			return float64(ws.cal.WebVCPUs) * efficiency(&ws.cal, j, ws.cal.WebVCPUs) / ws.thrash * boundedBy(j, ws.cal.WebVCPUs)
		},
	}
	ws.stations[1] = Station{
		Name: "appdb",
		Rate: func(j int) float64 {
			if j > ws.maxThreads {
				j = ws.maxThreads
			}
			return ws.level.CPUCapacity() * efficiency(&ws.cal, j, ws.level.VCPUs) * boundedBy(j, ws.level.VCPUs)
		},
	}
	ws.stations[2] = Station{
		Name: "disk",
		Rate: func(j int) float64 {
			return math.Min(float64(j), ws.cal.DiskCapacity)
		},
	}
	// The network always has three stations, so the scratch buffers live in
	// the solver itself: a one-shot SolveWebsite pays for its memo with the
	// allocations this saves.
	sv := &ws.sv
	sv.q, sv.seen, sv.resid = ws.scratch[0][:], ws.scratch[1][:], ws.scratch[2][:]
	sv.residOut, sv.utilOut = ws.scratch[3][:], ws.scratch[4][:]
	sv.rates = ws.rates[:]
	return ws
}

// Solve predicts the steady-state performance of one configuration. It
// computes exactly what the package-level SolveWebsite computes (which
// delegates here); the returned WebsiteResult owns its slices and may be
// retained across calls.
func (ws *WebsiteSolver) Solve(cal webtier.Calibration, p webtier.Params, w tpcw.Workload, level vmenv.Level) (WebsiteResult, error) {
	if err := p.Validate(); err != nil {
		return WebsiteResult{}, err
	}
	if err := w.Validate(); err != nil {
		return WebsiteResult{}, err
	}

	demand := tpcw.MeanDemand(w.Mix)

	// Connection reuse: a think shorter than the keep-alive timeout reuses
	// the connection. Long thinks and session ends always reconnect.
	shortThink := 1 - cal.LongThinkProb
	pReuse := shortThink * (1 - math.Exp(-p.KeepAliveTimeoutSec/tpcw.MeanThinkTimeSeconds)) *
		(1 - 1/float64(tpcw.MeanSessionLength))
	webDemand := demand.Web + (1-pReuse)*cal.ConnectCostSec

	// Session creation: new sessions at session start plus timeout expiries
	// during long thinks.
	pExpire := cal.LongThinkProb * math.Exp(-p.SessionTimeoutMin*60/cal.LongThinkMeanSec)
	pCreate := 1/float64(tpcw.MeanSessionLength) + pExpire
	appDemand := demand.App + pCreate*cal.SessionCreateCostSec

	// Effective think time per interaction, including the long-pause mixture
	// and the end-of-session pause.
	think := shortThink*tpcw.MeanThinkTimeSeconds + cal.LongThinkProb*cal.LongThinkMeanSec
	z := (1-1/float64(tpcw.MeanSessionLength))*think + 1/float64(tpcw.MeanSessionLength)*cal.LongThinkMeanSec

	ws.scope(cal, level)
	ws.maxClients, ws.maxThreads = p.MaxClients, p.MaxThreads

	// Fixed-point over occupancy-dependent factors.
	var (
		net      networkSolution
		err      error
		ioFactor float64
	)
	inFlight := math.Min(float64(w.Clients)/4, float64(p.MaxClients))
	for iter := 0; iter < 5; iter++ {
		conns := estimateConns(p, w, z, net.responseTime)
		workers := math.Min(inFlight+float64(p.MinSpareServers+p.MaxSpareServers)/2, float64(p.MaxClients))
		ws.thrash = webThrash(cal, workers, conns)

		threads := math.Min(inFlight+float64(p.MinSpareThreads+p.MaxSpareThreads)/2, float64(p.MaxThreads))
		sessions := estimateSessions(p, w, z, net.throughput)
		ioFactor = dbIOFactor(cal, level, threads, sessions)

		ws.stations[0].Demand = webDemand
		ws.stations[1].Demand = appDemand + demand.DB
		ws.stations[2].Demand = demand.IO * ioFactor
		net, err = ws.solveNetwork(w.Clients, z)
		if err != nil {
			return WebsiteResult{}, err
		}
		inFlight = net.throughput * net.responseTime // Little's law
	}

	// One backing array for both station slices: the WebsiteResult owns it.
	stationOut := make([]float64, 6)
	copy(stationOut, net.residence[:])
	copy(stationOut[3:], net.utilization[:])
	return WebsiteResult{
		MeanRT:     net.responseTime,
		Throughput: net.throughput,
		Network: Result{
			N:                  w.Clients,
			Throughput:         net.throughput,
			ResponseTime:       net.responseTime,
			StationResidence:   stationOut[:3:3],
			StationUtilization: stationOut[3:],
		},
		IOFactor: ioFactor,
	}, nil
}

// scope binds the calibration and level the rate closures read, emptying the
// memo when either differs from the pair its networks were solved under.
func (ws *WebsiteSolver) scope(cal webtier.Calibration, level vmenv.Level) {
	if ws.memo == nil {
		ws.memo = make(map[networkKey]networkSolution)
	} else if cal != ws.cal || level != ws.level {
		clear(ws.memo)
	}
	ws.cal, ws.level = cal, level
}

// solveNetwork returns the approximate-MVA solution of the network the
// stations and per-call state now describe, solving it only when the memo
// does not hold it.
func (ws *WebsiteSolver) solveNetwork(n int, z float64) (networkSolution, error) {
	st := &ws.stations
	key := networkKey{
		n:          n,
		z:          math.Float64bits(z),
		demand:     [3]uint64{math.Float64bits(st[0].Demand), math.Float64bits(st[1].Demand), math.Float64bits(st[2].Demand)},
		thrash:     math.Float64bits(ws.thrash),
		maxClients: ws.maxClients,
		maxThreads: ws.maxThreads,
	}
	if net, ok := ws.memo[key]; ok {
		return net, nil
	}
	res, err := ws.sv.SolveApprox(n, z, st[:])
	if err != nil {
		return networkSolution{}, err
	}
	net := networkSolution{throughput: res.Throughput, responseTime: res.ResponseTime}
	copy(net.residence[:], res.StationResidence)
	copy(net.utilization[:], res.StationUtilization)
	if len(ws.memo) >= memoLimit {
		clear(ws.memo)
	}
	ws.memo[key] = net
	return net, nil
}

// SolveWebsiteBatch evaluates many configurations of one workload context
// through a single shared solver, returning results in input order. It is
// the array-shaped entry point for lattice sweeps: callers that fan a sweep
// across workers chunk the lattice and give each worker its own solver.
func SolveWebsiteBatch(cal webtier.Calibration, ps []webtier.Params, w tpcw.Workload, level vmenv.Level) ([]WebsiteResult, error) {
	ws := NewWebsiteSolver()
	out := make([]WebsiteResult, len(ps))
	for i := range ps {
		r, err := ws.Solve(cal, ps[i], w, level)
		if err != nil {
			return nil, fmt.Errorf("queueing: batch config %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}
