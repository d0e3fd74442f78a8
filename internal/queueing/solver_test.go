package queueing

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
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
		{Name: "net", Demand: 0.002, Rate: capped(MultiServer(8), 32)},
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

// table2Contexts are the six contexts of system.Table2, which this package
// cannot import; table2Clients is their population.
var table2Contexts = []struct {
	mix   tpcw.Mix
	level vmenv.Level
}{
	{tpcw.Shopping, vmenv.Level1}, {tpcw.Ordering, vmenv.Level1}, {tpcw.Ordering, vmenv.Level3},
	{tpcw.Shopping, vmenv.Level2}, {tpcw.Ordering, vmenv.Level2}, {tpcw.Browsing, vmenv.Level1},
}

const table2Clients = 1100

// coarsePoints returns the 256 coarse grouped configurations policy training
// samples on every context, as website parameters.
func coarsePoints(tb testing.TB) []webtier.Params {
	tb.Helper()
	space := config.Default()
	groups, err := space.Grouping()
	if err != nil {
		tb.Fatal(err)
	}
	cfgs, _, err := groups.Coarse(4)
	if err != nil {
		tb.Fatal(err)
	}
	ps := make([]webtier.Params, len(cfgs))
	for i, cfg := range cfgs {
		if ps[i], err = webtier.ParamsFromConfig(space, cfg); err != nil {
			tb.Fatal(err)
		}
	}
	return ps
}

// TestSolveApproxMatchesReference holds the orbit-skipping SolveApprox to the
// walk-to-the-cap oracle bit for bit, on the website stations of all six
// Table-2 contexts at every coarse grouped configuration policy training
// samples, and on solverStations at several populations and station counts.
// One warm Solver serves every call, so the saved-iterate buffer is reused
// across shapes. The website solver's memo sends each distinct network of the
// six trainings through SolveApprox once. The grid must reach all three early
// exits.
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

	cal := webtier.DefaultCalibration()
	points := coarsePoints(t)
	for _, c := range table2Contexts {
		w := tpcw.Workload{Mix: c.mix, Clients: table2Clients}
		for _, p := range points {
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
// per-call allocations: warm solver methods must not allocate at all, a warm
// website solve performs only the small copy that detaches its result from
// the scratch, and a one-shot SolveWebsite (solver, closures, memo, result)
// stays within the twelve allocations it made before the solver kept a memo.
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
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := SolveWebsite(cal, p, w, vmenv.Level1); err != nil {
			t.Fatal(err)
		}
	}); allocs > 12 {
		t.Fatalf("one-shot SolveWebsite allocates %.1f per run, want <= 12", allocs)
	}
}

// sameWebsiteResult reports the first field in which got and want differ in
// their bits, or "" when they are identical.
func sameWebsiteResult(got, want WebsiteResult) string {
	bits := math.Float64bits
	switch {
	case bits(got.MeanRT) != bits(want.MeanRT):
		return fmt.Sprintf("MeanRT %b != %b", got.MeanRT, want.MeanRT)
	case bits(got.Throughput) != bits(want.Throughput):
		return fmt.Sprintf("Throughput %b != %b", got.Throughput, want.Throughput)
	case bits(got.IOFactor) != bits(want.IOFactor):
		return fmt.Sprintf("IOFactor %b != %b", got.IOFactor, want.IOFactor)
	}
	return sameResult(got.Network, want.Network)
}

// TestWebsiteMemoMatchesFreshSolver holds one warm WebsiteSolver, memo and
// all, to a fresh solver per call, bit for bit. It first walks every Table-2
// context's coarse points in a shuffled order — where at most 35 % of the
// approximate-MVA solves may reach SolveApprox, so the memo must hold a whole
// sweep — and then revisits points while the level, the workload or the
// calibration changes between consecutive calls. The second calibration and
// level differ from the first only in what the rate functions read, so every
// network keeps its memo key and only the scope tells them apart. Last come
// near twins, one pair per key field.
func TestWebsiteMemoMatchesFreshSolver(t *testing.T) {
	ws := NewWebsiteSolver()
	var solved int
	ws.sv.approxDone = func(int, float64, []Station, Result, approxEnd) { solved++ }
	check := func(cal webtier.Calibration, p webtier.Params, w tpcw.Workload, level vmenv.Level) {
		t.Helper()
		got, err := ws.Solve(cal, p, w, level)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameWebsiteResult(got, freshSolve(t, cal, p, w, level)); diff != "" {
			t.Fatalf("%+v %s %+v: %s", w, level.Name, p, diff)
		}
	}

	cal := webtier.DefaultCalibration()
	points := coarsePoints(t)
	rng := rand.New(rand.NewPCG(39, 1))
	for _, c := range table2Contexts {
		w := tpcw.Workload{Mix: c.mix, Clients: table2Clients}
		for _, i := range rng.Perm(len(points)) {
			check(cal, points[i], w, c.level)
		}
	}
	calls := 5 * len(table2Contexts) * len(points)
	t.Logf("sweeps: %d of %d approximate-MVA solves reached SolveApprox", solved, calls)
	if solved > calls*35/100 {
		t.Errorf("%d of %d approximate-MVA solves reached SolveApprox, want <= 35%%", solved, calls)
	}

	slowCal := cal
	slowCal.CtxSwitchCoeff *= 3
	slowCal.DiskCapacity /= 2
	fewerCPUs := vmenv.Level{Name: "Level-1-2cpu", VCPUs: 2, MemoryMB: vmenv.Level1.MemoryMB}
	shopping := tpcw.Workload{Mix: tpcw.Shopping, Clients: table2Clients}
	ordering := tpcw.Workload{Mix: tpcw.Ordering, Clients: 700}
	// Each step changes one of level, workload and calibration; the cycle
	// returns to every state twice, once after a workload-only change that
	// keeps the memo and once after a scope change that empties it.
	steps := []struct {
		cal   webtier.Calibration
		w     tpcw.Workload
		level vmenv.Level
	}{
		{cal, shopping, vmenv.Level1}, {cal, ordering, vmenv.Level1}, {cal, shopping, vmenv.Level1},
		{cal, shopping, fewerCPUs}, {slowCal, shopping, fewerCPUs}, {slowCal, ordering, fewerCPUs},
		{slowCal, shopping, fewerCPUs}, {slowCal, shopping, vmenv.Level1}, {cal, shopping, vmenv.Level1},
		{cal, ordering, vmenv.Level1}, {cal, ordering, fewerCPUs}, {slowCal, ordering, fewerCPUs},
		{slowCal, ordering, vmenv.Level3}, {cal, ordering, vmenv.Level3}, {cal, ordering, vmenv.Level1},
	}
	solved = 0
	for r := 0; r < 40; r++ {
		p := points[rng.IntN(8)]
		for _, s := range steps {
			check(s.cal, p, s.w, s.level)
		}
	}
	calls = 5 * 40 * len(steps)
	t.Logf("revisits: %d of %d approximate-MVA solves reached SolveApprox", solved, calls)
	if solved == calls {
		t.Error("no revisit hit the memo")
	}

	// Near twins: two points whose networks differ in one memo key field
	// alone, under a calibration and level where that field still moves the
	// solution — a key without it would hand the second twin the first one's
	// networks. Each field but the think time gets a pair; the calibration
	// alone sets the think time, so only the scope can separate two of those.
	// A roomy web VM keeps the thrash factor at 1 and a small app VM keeps
	// the DB cache at its floor, so the pool and session estimates that feed
	// them move nothing else.
	tightWeb := cal
	tightWeb.WebMemMB = 400
	roomyWeb := cal
	roomyWeb.WebMemMB = 1 << 20
	slowWeb := roomyWeb
	slowWeb.WebVCPUs, slowWeb.ConnectCostSec = 1, 20*cal.ConnectCostSec
	big := vmenv.Level{Name: "big", VCPUs: 16, MemoryMB: 1 << 16}
	small := vmenv.Level{Name: "small", VCPUs: 2, MemoryMB: 1024}
	crowd := tpcw.Workload{Mix: tpcw.Ordering, Clients: 3000}
	base := webtier.DefaultParams()
	capped := base
	capped.MaxClients, capped.MaxThreads = 100, 40
	with := func(p webtier.Params, edit func(*webtier.Params)) webtier.Params {
		edit(&p)
		return p
	}
	type point struct {
		w tpcw.Workload
		p webtier.Params
	}
	for _, tw := range []struct {
		field string
		cal   webtier.Calibration
		level vmenv.Level
		a, b  point
	}{
		{"thrash", tightWeb, vmenv.Level1, point{tpcw.Workload{Mix: tpcw.Shopping, Clients: 400}, base},
			point{tpcw.Workload{Mix: tpcw.Shopping, Clients: 400}, with(base, func(p *webtier.Params) { p.MaxSpareServers += 30 })}},
		{"MaxClients", slowWeb, big, point{crowd, capped},
			point{crowd, with(capped, func(p *webtier.Params) { p.MaxClients = 110 })}},
		{"MaxThreads", roomyWeb, small, point{crowd, capped},
			point{crowd, with(capped, func(p *webtier.Params) { p.MaxThreads = 44 })}},
		{"population", roomyWeb, small, point{crowd, capped},
			point{tpcw.Workload{Mix: tpcw.Ordering, Clients: 2900}, capped}},
		{"web demand", roomyWeb, small, point{crowd, capped},
			point{crowd, with(capped, func(p *webtier.Params) { p.KeepAliveTimeoutSec = 5 })}},
		{"app/db demand", roomyWeb, small, point{crowd, capped},
			point{crowd, with(capped, func(p *webtier.Params) { p.SessionTimeoutMin = 10 })}},
	} {
		if diff := sameWebsiteResult(freshSolve(t, tw.cal, tw.a.p, tw.a.w, tw.level), freshSolve(t, tw.cal, tw.b.p, tw.b.w, tw.level)); diff == "" {
			t.Fatalf("%s twins solve alike; they test nothing", tw.field)
		}
		check(tw.cal, tw.a.p, tw.a.w, tw.level)
		check(tw.cal, tw.b.p, tw.b.w, tw.level)
	}
}

// freshSolve solves one point on a fresh website solver.
func freshSolve(t *testing.T, cal webtier.Calibration, p webtier.Params, w tpcw.Workload, level vmenv.Level) WebsiteResult {
	t.Helper()
	res, err := NewWebsiteSolver().Solve(cal, p, w, level)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// BenchmarkWebsiteSolverSolve times one website solve from an empty memo.
func BenchmarkWebsiteSolverSolve(b *testing.B) {
	ws := NewWebsiteSolver()
	cal := webtier.DefaultCalibration()
	p := webtier.DefaultParams()
	w := tpcw.Workload{Mix: tpcw.Shopping, Clients: 400}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(ws.memo)
		if _, err := ws.Solve(cal, p, w, vmenv.Level1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWebsiteSolverSweep times one sweep of context-1's 256 coarse
// points the way the analytic policy sampler runs it: chunks of 16 points,
// each on a new solver.
func BenchmarkWebsiteSolverSweep(b *testing.B) {
	cal := webtier.DefaultCalibration()
	points := coarsePoints(b)
	w := tpcw.Workload{Mix: table2Contexts[0].mix, Clients: table2Clients}
	level := table2Contexts[0].level
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(points); lo += 16 {
			ws := NewWebsiteSolver()
			for _, p := range points[lo:min(lo+16, len(points))] {
				if _, err := ws.Solve(cal, p, w, level); err != nil {
					b.Fatal(err)
				}
			}
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
