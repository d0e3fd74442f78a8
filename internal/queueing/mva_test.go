package queueing

import (
	"math"
	"testing"
)

func TestSolveValidation(t *testing.T) {
	st := []Station{{Name: "s", Demand: 1}}
	if _, err := Solve(0, 1, st); err == nil {
		t.Fatal("zero population accepted")
	}
	if _, err := Solve(1, -1, st); err == nil {
		t.Fatal("negative think time accepted")
	}
	if _, err := Solve(1, 1, nil); err == nil {
		t.Fatal("no stations accepted")
	}
	if _, err := Solve(1, 1, []Station{{Demand: -1}}); err == nil {
		t.Fatal("negative demand accepted")
	}
}

func TestSingleStationNoThink(t *testing.T) {
	// One fixed-rate station, no think time: the station is always busy, so
	// X = 1/D and R = N·D for any N.
	const d = 0.25
	for n := 1; n <= 10; n++ {
		res, err := Solve(n, 0, []Station{{Name: "cpu", Demand: d}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Throughput-1/d) > 1e-9 {
			t.Fatalf("N=%d: X=%v, want %v", n, res.Throughput, 1/d)
		}
		if math.Abs(res.ResponseTime-float64(n)*d) > 1e-9 {
			t.Fatalf("N=%d: R=%v, want %v", n, res.ResponseTime, float64(n)*d)
		}
	}
}

func TestSinglePopulationResponseEqualsDemand(t *testing.T) {
	// With N=1 there is no queueing anywhere: R = sum of demands.
	st := []Station{
		{Name: "a", Demand: 0.1},
		{Name: "b", Demand: 0.3},
		{Name: "c", Demand: 0.05, Rate: MultiServer(4)},
	}
	res, err := Solve(1, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ResponseTime-0.45) > 1e-9 {
		t.Fatalf("R = %v, want 0.45", res.ResponseTime)
	}
	wantX := 1 / (2 + 0.45)
	if math.Abs(res.Throughput-wantX) > 1e-9 {
		t.Fatalf("X = %v, want %v", res.Throughput, wantX)
	}
}

func TestInteractiveResponseTimeLaw(t *testing.T) {
	// R = N/X − Z must hold exactly for any network.
	st := []Station{
		{Name: "cpu", Demand: 0.02, Rate: MultiServer(2)},
		{Name: "disk", Demand: 0.05},
	}
	for _, n := range []int{1, 5, 20, 100} {
		res, err := Solve(n, 3, st)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n)/res.Throughput - 3
		if math.Abs(res.ResponseTime-want) > 1e-6*want+1e-9 {
			t.Fatalf("N=%d: R=%v, law says %v", n, res.ResponseTime, want)
		}
	}
}

func TestThroughputBounds(t *testing.T) {
	// X(N) ≤ min(N/(Z+ΣD), 1/Dmax) — the classic asymptotic bounds.
	st := []Station{
		{Name: "a", Demand: 0.04},
		{Name: "b", Demand: 0.02},
	}
	const z = 5.0
	total := 0.06
	for _, n := range []int{1, 3, 10, 50, 200} {
		res, err := Solve(n, z, st)
		if err != nil {
			t.Fatal(err)
		}
		bound := math.Min(float64(n)/(z+total), 1/0.04)
		if res.Throughput > bound+1e-9 {
			t.Fatalf("N=%d: X=%v exceeds bound %v", n, res.Throughput, bound)
		}
	}
}

func TestThroughputMonotoneInPopulation(t *testing.T) {
	st := []Station{
		{Name: "cpu", Demand: 0.03, Rate: MultiServer(2)},
		{Name: "disk", Demand: 0.06},
	}
	prev := 0.0
	for n := 1; n <= 120; n += 7 {
		res, err := Solve(n, 4, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput < prev-1e-9 {
			t.Fatalf("X decreased at N=%d: %v < %v", n, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestMultiServerBeatsSingle(t *testing.T) {
	single := []Station{{Name: "cpu", Demand: 0.1}}
	multi := []Station{{Name: "cpu", Demand: 0.1, Rate: MultiServer(4)}}
	s, err := Solve(40, 2, single)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Solve(40, 2, multi)
	if err != nil {
		t.Fatal(err)
	}
	if m.ResponseTime >= s.ResponseTime {
		t.Fatalf("multi-server RT %v not better than single %v", m.ResponseTime, s.ResponseTime)
	}
}

func TestMultiServerSaturationThroughput(t *testing.T) {
	// A c-server station saturates at c/D.
	const (
		d = 0.1
		c = 3
	)
	res, err := Solve(500, 0.1, []Station{{Name: "cpu", Demand: d, Rate: MultiServer(c)}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-c/d) > 0.05*c/d {
		t.Fatalf("saturated X = %v, want ~%v", res.Throughput, c/d)
	}
}

// capped returns a rate function equal to inner up to cap jobs in service;
// beyond the cap the rate stays flat (extra jobs queue), as under an
// admission limit such as MaxClients.
func capped(inner func(int) float64, cap int) func(int) float64 {
	return func(j int) float64 {
		return inner(min(j, cap))
	}
}

func TestCappedStationLimitsThroughput(t *testing.T) {
	// Admission cap of 4 on a 100-server station behaves like 4 servers.
	limited := []Station{{Name: "cpu", Demand: 0.1, Rate: capped(MultiServer(100), 4)}}
	four := []Station{{Name: "cpu", Demand: 0.1, Rate: MultiServer(4)}}
	a, err := Solve(200, 1, limited)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(200, 1, four)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Throughput-b.Throughput) > 1e-6*b.Throughput {
		t.Fatalf("capped X %v != 4-server X %v", a.Throughput, b.Throughput)
	}
}

func TestZeroDemandStationIgnored(t *testing.T) {
	with, err := Solve(10, 1, []Station{
		{Name: "cpu", Demand: 0.05},
		{Name: "noop", Demand: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Solve(10, 1, []Station{{Name: "cpu", Demand: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(with.Throughput-without.Throughput) > 1e-9 {
		t.Fatal("zero-demand station changed the solution")
	}
	if with.StationResidence[1] != 0 {
		t.Fatal("zero-demand station has residence")
	}
}

func TestUtilizationInRange(t *testing.T) {
	st := []Station{
		{Name: "cpu", Demand: 0.03, Rate: MultiServer(2)},
		{Name: "disk", Demand: 0.08},
	}
	res, err := Solve(60, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range res.StationUtilization {
		if u < -1e-9 || u > 1+1e-9 {
			t.Fatalf("station %d utilization %v", i, u)
		}
	}
	// The disk is the bottleneck (D=0.08): near saturation its utilization
	// must exceed the CPU's.
	if res.StationUtilization[1] <= res.StationUtilization[0] {
		t.Fatalf("bottleneck utilization ordering wrong: %v", res.StationUtilization)
	}
}

func TestApproxMatchesExactModerateLoad(t *testing.T) {
	// Where exact MVA is stable, the approximation must land close.
	st := []Station{
		{Name: "cpu", Demand: 0.02, Rate: MultiServer(2)},
		{Name: "disk", Demand: 0.05},
	}
	for _, n := range []int{1, 5, 20, 60} {
		exact, err := Solve(n, 3, st)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := SolveApprox(n, 3, st)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(approx.Throughput-exact.Throughput) / exact.Throughput; rel > 0.1 {
			t.Fatalf("N=%d: approx X %v vs exact %v (rel %v)", n, approx.Throughput, exact.Throughput, rel)
		}
	}
}

func TestApproxSaturationWithDegradingRates(t *testing.T) {
	// A station whose rate degrades with queue length and is capped: in deep
	// saturation, throughput must approach rate(cap)/D — the regime where
	// exact load-dependent MVA loses numerical stability.
	degrading := func(j int) float64 {
		eff := 1 / (1 + 0.002*float64(j))
		return 2 * eff
	}
	st := []Station{{Name: "cpu", Demand: 0.02, Rate: capped(degrading, 200)}}
	res, err := SolveApprox(800, 10, st)
	if err != nil {
		t.Fatal(err)
	}
	want := degrading(200) / 0.02
	// The station must be saturated and throughput within 15% of the capped
	// service rate.
	if math.Abs(res.Throughput-want)/want > 0.15 {
		t.Fatalf("saturated X %v, want ~%v", res.Throughput, want)
	}
}

func TestApproxValidation(t *testing.T) {
	st := []Station{{Name: "s", Demand: 1}}
	if _, err := SolveApprox(0, 1, st); err == nil {
		t.Fatal("zero population accepted")
	}
	if _, err := SolveApprox(1, -1, st); err == nil {
		t.Fatal("negative think accepted")
	}
	if _, err := SolveApprox(1, 1, nil); err == nil {
		t.Fatal("no stations accepted")
	}
}

func TestApproxResponseTimeLaw(t *testing.T) {
	st := []Station{
		{Name: "cpu", Demand: 0.03, Rate: MultiServer(3)},
		{Name: "disk", Demand: 0.06},
	}
	for _, n := range []int{10, 100, 500} {
		res, err := SolveApprox(n, 5, st)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n)/res.Throughput - 5
		if math.Abs(res.ResponseTime-want) > 1e-6*want+1e-6 {
			t.Fatalf("N=%d: R=%v, law says %v", n, res.ResponseTime, want)
		}
	}
}
