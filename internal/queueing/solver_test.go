package queueing

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

func solverStations() []Station {
	return []Station{
		{Name: "cpu", Demand: 0.010, Rate: MultiServer(4)},
		{Name: "disk", Demand: 0.006},
		{Name: "net", Demand: 0.002, Rate: Capped(MultiServer(8), 32)},
	}
}

// TestSolverMatchesPackageFunctions pins the scratch-reuse contract: a Solver
// produces bit-identical results to the allocating package functions, even
// when its buffers are warm from solves of other shapes and populations.
func TestSolverMatchesPackageFunctions(t *testing.T) {
	sv := NewSolver()
	// Warm the scratch with a larger problem so reuse paths are exercised.
	if _, err := sv.Solve(300, 5, solverStations()); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.SolveApprox(900, 5, solverStations()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7, 50, 200} {
		want, err := Solve(n, 12, solverStations())
		if err != nil {
			t.Fatal(err)
		}
		got, err := sv.Solve(n, 12, solverStations())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Solver.Solve %+v != Solve %+v", n, got, want)
		}
		wantA, err := SolveApprox(n, 12, solverStations())
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := sv.SolveApprox(n, 12, solverStations())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotA, wantA) {
			t.Fatalf("n=%d: Solver.SolveApprox %+v != SolveApprox %+v", n, gotA, wantA)
		}
	}
}

// referenceSolveApprox is Schweitzer approximate MVA as it was before the
// solver learned to skip the periodic orbit: every iteration up to the cap is
// walked. It is the oracle TestSolveApproxMatchesReference holds
// Solver.SolveApprox to.
func referenceSolveApprox(n int, z float64, stations []Station) (Result, error) {
	if err := validate(n, z, stations); err != nil {
		return Result{}, err
	}

	k := len(stations)
	q, resid := make([]float64, k), make([]float64, k)
	for i := range q {
		q[i] = float64(n) / float64(k+1)
	}

	const (
		maxIter = 2000
		damping = 0.5
		tol     = 1e-9
	)
	var x float64
	scale := float64(n-1) / float64(n)
	for iter := 0; iter < maxIter; iter++ {
		var total float64
		for i, s := range stations {
			if s.Demand == 0 {
				resid[i] = 0
				continue
			}
			// Evaluate the service rate at the current mean occupancy.
			at := int(math.Round(q[i])) + 1
			if at < 1 {
				at = 1
			}
			if at > n {
				at = n
			}
			rate := s.rate(at)
			resid[i] = s.Demand / rate * (1 + q[i]*scale)
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
			break
		}
	}

	res := Result{
		N:                  n,
		Throughput:         x,
		StationResidence:   make([]float64, k),
		StationUtilization: make([]float64, k),
	}
	for i, s := range stations {
		res.StationResidence[i] = resid[i]
		res.ResponseTime += resid[i]
		res.StationUtilization[i] = 0
		if s.Demand > 0 {
			at := int(math.Round(q[i])) + 1
			if at < 1 {
				at = 1
			}
			if at > n {
				at = n
			}
			res.StationUtilization[i] = math.Min(1, x*s.Demand/s.rate(at))
		}
	}
	if math.IsNaN(res.Throughput) || math.IsInf(res.Throughput, 0) {
		return Result{}, errors.New("queueing: approximate MVA diverged")
	}
	return res, nil
}

// sameResult reports the first field in which got and want differ in their
// bits, or "" when they are identical.
func sameResult(got, want Result) string {
	bits := math.Float64bits
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N %d != %d", got.N, want.N)
	case bits(got.Throughput) != bits(want.Throughput):
		return fmt.Sprintf("Throughput %b != %b", got.Throughput, want.Throughput)
	case bits(got.ResponseTime) != bits(want.ResponseTime):
		return fmt.Sprintf("ResponseTime %b != %b", got.ResponseTime, want.ResponseTime)
	case len(got.StationResidence) != len(want.StationResidence) ||
		len(got.StationUtilization) != len(want.StationUtilization):
		return "station slice lengths differ"
	}
	for i := range want.StationResidence {
		if bits(got.StationResidence[i]) != bits(want.StationResidence[i]) {
			return fmt.Sprintf("StationResidence[%d] %b != %b", i, got.StationResidence[i], want.StationResidence[i])
		}
		if bits(got.StationUtilization[i]) != bits(want.StationUtilization[i]) {
			return fmt.Sprintf("StationUtilization[%d] %b != %b", i, got.StationUtilization[i], want.StationUtilization[i])
		}
	}
	return ""
}

// TestSolveApproxMatchesReference holds the orbit-skipping SolveApprox to the
// walk-to-the-cap oracle bit for bit, on the website stations of all six
// Table-2 contexts at every coarse grouped configuration policy training
// samples, and on solverStations at several populations and station counts.
// One warm Solver serves every call, so the saved-iterate buffer is reused
// across shapes. The grid must reach all three early exits.
func TestSolveApproxMatchesReference(t *testing.T) {
	ws := NewWebsiteSolver()
	sv := &ws.sv
	var ends [endOrbitTail + 1]int
	sv.approxDone = func(n int, z float64, stations []Station, got Result, end approxEnd) {
		ends[end]++
		want, err := referenceSolveApprox(n, z, stations)
		if err != nil {
			t.Fatalf("n=%d z=%v: reference: %v", n, z, err)
		}
		if diff := sameResult(got, want); diff != "" {
			t.Fatalf("n=%d z=%v %d stations (exit %d): %s", n, z, len(stations), end, diff)
		}
	}

	// The six contexts of system.Table2, which this package cannot import.
	contexts := []struct {
		mix   tpcw.Mix
		level vmenv.Level
	}{
		{tpcw.Shopping, vmenv.Level1}, {tpcw.Ordering, vmenv.Level1}, {tpcw.Ordering, vmenv.Level3},
		{tpcw.Shopping, vmenv.Level2}, {tpcw.Ordering, vmenv.Level2}, {tpcw.Browsing, vmenv.Level1},
	}
	space := config.Default()
	groups, err := space.Grouping()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, _, err := groups.Coarse(4)
	if err != nil {
		t.Fatal(err)
	}
	cal := webtier.DefaultCalibration()
	for _, c := range contexts {
		w := tpcw.Workload{Mix: c.mix, Clients: 1100}
		for _, cfg := range cfgs {
			p, err := webtier.ParamsFromConfig(space, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ws.Solve(cal, p, w, c.level); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, k := range []int{1, 2, 3} {
		for _, n := range []int{1, 2, 7, 50, 200, 800, 3000} {
			if _, err := sv.SolveApprox(n, 12, solverStations()[:k]); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Logf("exits: capped %d, converged %d, orbit %d, orbit tail %d",
		ends[endCapped], ends[endConverged], ends[endOrbit], ends[endOrbitTail])
	for _, e := range []approxEnd{endConverged, endOrbit, endOrbitTail} {
		if ends[e] == 0 {
			t.Errorf("no solve ended with exit %d", e)
		}
	}
}

// TestWebsiteSolverMatchesSolveWebsite pins the website fast path against the
// package function across configurations, mixes and VM levels.
func TestWebsiteSolverMatchesSolveWebsite(t *testing.T) {
	cal := webtier.DefaultCalibration()
	ws := NewWebsiteSolver()
	small := webtier.DefaultParams()
	small.MaxClients = 120
	small.MaxThreads = 40
	cases := []struct {
		p       webtier.Params
		mix     tpcw.Mix
		clients int
		level   vmenv.Level
	}{
		{webtier.DefaultParams(), tpcw.Shopping, 400, vmenv.Level1},
		{small, tpcw.Browsing, 700, vmenv.Level3},
		{webtier.DefaultParams(), tpcw.Ordering, 150, vmenv.Level2},
	}
	for i, tc := range cases {
		w := tpcw.Workload{Mix: tc.mix, Clients: tc.clients}
		want, err := SolveWebsite(cal, tc.p, w, tc.level)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.Solve(cal, tc.p, w, tc.level)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: WebsiteSolver.Solve %+v != SolveWebsite %+v", i, got, want)
		}
	}
}

// TestSolveWebsiteBatchMatchesSingles pins the batch entry point to the
// per-call results, in input order.
func TestSolveWebsiteBatchMatchesSingles(t *testing.T) {
	cal := webtier.DefaultCalibration()
	w := tpcw.Workload{Mix: tpcw.Shopping, Clients: 500}
	ps := make([]webtier.Params, 4)
	for i := range ps {
		ps[i] = webtier.DefaultParams()
		ps[i].MaxClients = 100 + 150*i
	}
	batch, err := SolveWebsiteBatch(cal, ps, w, vmenv.Level2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ps) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(ps))
	}
	for i, p := range ps {
		want, err := SolveWebsite(cal, p, w, vmenv.Level2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("config %d: batch %+v != single %+v", i, batch[i], want)
		}
	}
}

// TestSolverHotPathAllocFree asserts the scratch buffers actually remove the
// per-call allocations: warm solver methods must not allocate at all, and a
// warm website solve performs only the two small copies that detach its
// result from the scratch.
func TestSolverHotPathAllocFree(t *testing.T) {
	sv := NewSolver()
	stations := solverStations()
	if _, err := sv.Solve(200, 12, stations); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := sv.Solve(200, 12, stations); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Solver.Solve allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := sv.SolveApprox(800, 12, stations); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Solver.SolveApprox allocates %.1f per run, want 0", allocs)
	}

	ws := NewWebsiteSolver()
	cal := webtier.DefaultCalibration()
	p := webtier.DefaultParams()
	w := tpcw.Workload{Mix: tpcw.Shopping, Clients: 400}
	if _, err := ws.Solve(cal, p, w, vmenv.Level1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Solve(cal, p, w, vmenv.Level1); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("warm WebsiteSolver.Solve allocates %.1f per run, want <= 2 (result detach copies)", allocs)
	}
}

func BenchmarkWebsiteSolverSolve(b *testing.B) {
	ws := NewWebsiteSolver()
	cal := webtier.DefaultCalibration()
	p := webtier.DefaultParams()
	w := tpcw.Workload{Mix: tpcw.Shopping, Clients: 400}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Solve(cal, p, w, vmenv.Level1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOccupancyMatchesRound holds the divide-free rounding SolveApprox
// evaluates rates at to int(math.Round(q)), after the [1, n] clamp both end
// in: on halves, on the largest double below one half (which q+0.5 would
// round up), near 2⁵², and on the non-finite values a diverging solve feeds it.
func TestOccupancyMatchesRound(t *testing.T) {
	const n = 1 << 60
	clamp := func(at int) int { return min(max(at, 1), n) }
	for _, q := range []float64{
		0, 0.5, 0.49999999999999994, 1.5, 2.5, 1<<52 - 0.5, math.NaN(), math.Inf(1),
		0.25, 1, 2.4999999999999996, 7.75, 1100,
	} {
		if got, want := occupancy(q, n), clamp(int(math.Round(q))+1); got != want {
			t.Errorf("occupancy(%v) = %d, want %d", q, got, want)
		}
	}
	for _, tt := range []struct{ q, n, want int }{{0, 1, 1}, {5, 3, 3}} {
		if got := occupancy(float64(tt.q), tt.n); got != tt.want {
			t.Errorf("occupancy(%d, n=%d) = %d, want %d", tt.q, tt.n, got, tt.want)
		}
	}
}

// TestRateMemo: an access pattern that alternates over three occupancies
// reads back the rate function's values and Demand/rate, and calls the rate
// function exactly once per miss of a two-slot memo that overwrites its older
// slot.
func TestRateMemo(t *testing.T) {
	calls := 0
	s := &Station{Demand: 0.3, Rate: func(j int) float64 {
		calls++
		return 1.5 * float64(j)
	}}
	var m rateMemo
	var held []int // the memo's occupancies, oldest first
	misses := 0
	for step, j := range []int{1, 2, 1, 2, 3, 2, 3, 1, 1, 3, 2, 1, 3, 3, 2} {
		hit := slices.Contains(held, j)
		if !hit {
			misses++
			held = append(held, j)
			if len(held) > 2 {
				held = held[1:]
			}
		}
		k := m.at(s, j)
		if want := 1.5 * float64(j); m.rate[k] != want || m.demandOverRate[k] != s.Demand/want {
			t.Fatalf("step %d: at(%d) reads rate %v and Demand/rate %v, want %v and %v",
				step, j, m.rate[k], m.demandOverRate[k], want, s.Demand/want)
		}
		if calls != misses {
			t.Fatalf("step %d: %d rate calls after %d misses", step, calls, misses)
		}
	}
}
