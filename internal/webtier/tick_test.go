package webtier

import (
	"testing"

	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// TestInvariantsRandomWalk reconfigures a running model at random — params,
// population, mix, VM level — every few hundred ticks and recounts every
// counter and index after each single tick.
func TestInvariantsRandomWalk(t *testing.T) {
	rng := sim.NewRNG(2024)
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	m := newTestModel(t, tpcw.Shopping, 600, vmenv.Level2, 77)
	for step := 0; step < 60; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			p := DefaultParams()
			p.MaxClients = 1 + rng.Intn(400)
			p.MaxThreads = 1 + rng.Intn(400)
			p.KeepAliveTimeoutSec = pick(0, 1, 5, 15, 21)
			p.SessionTimeoutMin = pick(0.25, 1, 15, 35)
			p.MinSpareServers = rng.Intn(30)
			p.MaxSpareServers = rng.Intn(60)
			if rng.Bool(0.3) {
				p.AdmitConcurrency, p.AdmitQueue = 10+rng.Intn(100), rng.Intn(50)
			}
			if err := m.Configure(p); err != nil {
				t.Fatal(err)
			}
		case 2:
			w := tpcw.Workload{Mix: tpcw.Mixes()[rng.Intn(3)], Clients: 20 + rng.Intn(1500)}
			if err := m.SetWorkload(w); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := m.SetAppLevel(vmenv.Levels()[rng.Intn(3)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d, after reconfiguration: %v", step, err)
		}
		for n := 100 + rng.Intn(500); n > 0; n-- {
			m.tick()
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d, t=%v: %v", step, m.Now(), err)
			}
		}
	}
}

// tickCases are the three operating points the hot path is pinned at.
var tickCases = []struct {
	name    string
	mix     tpcw.Mix
	clients int
	level   vmenv.Level
}{
	{"400-light", tpcw.Browsing, 400, vmenv.Level1},
	{"1100-default", tpcw.Ordering, 1100, vmenv.Level1},
	{"3000-overloaded", tpcw.Shopping, 3000, vmenv.Level1},
}

// warmModel builds a model at the shipped calibration and runs it into steady
// state, so queues, heaps and scratch slices have reached their working size.
func warmModel(tb testing.TB, mix tpcw.Mix, clients int, level vmenv.Level) *Model {
	tb.Helper()
	m, err := New(Options{Workload: tpcw.Workload{Mix: mix, Clients: clients}, AppLevel: level, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m.Warmup(300)
	return m
}

// TestTickAllocFree pins that a tick allocates nothing: the due-client
// scratch slice, the heaps and the queues are all reused.
func TestTickAllocFree(t *testing.T) {
	for _, tc := range tickCases {
		m := warmModel(t, tc.mix, tc.clients, tc.level)
		if avg := testing.AllocsPerRun(10, func() { m.Warmup(1) }); avg != 0 {
			t.Errorf("%s: %v allocations per virtual second, want 0", tc.name, avg)
		}
	}
}

// BenchmarkTick measures one 25 ms slice at each operating point; ns/op is
// ns per tick.
func BenchmarkTick(b *testing.B) {
	for _, tc := range tickCases {
		b.Run(tc.name, func(b *testing.B) {
			m := warmModel(b, tc.mix, tc.clients, tc.level)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.tick()
			}
			virtual := float64(b.N) * m.cal.TickSeconds
			b.ReportMetric(virtual/b.Elapsed().Seconds(), "virtual-s/wall-s")
		})
	}
}
