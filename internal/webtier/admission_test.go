package webtier

import (
	"testing"

	"github.com/rac-project/rac/internal/admission"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// gatedModel builds a model with admission caps (and optionally the
// epoch-adaptive loop) on top of the Table 1 defaults.
func gatedModel(t *testing.T, clients, conc, queue, epoch int, seed uint64) *Model {
	t.Helper()
	p := DefaultParams()
	p.AdmitConcurrency = conc
	p.AdmitQueue = queue
	m, err := New(Options{
		Calibration: fastCal(),
		Params:      &p,
		Workload:    tpcw.Workload{Mix: tpcw.Shopping, Clients: clients},
		AppLevel:    vmenv.Level1,
		Seed:        seed,
		AdmitEpoch:  epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGateRejectsUnderTightCaps(t *testing.T) {
	m := gatedModel(t, 400, 20, 10, 0, 11)
	m.Warmup(30)
	st, err := m.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Fatal("tight gate under heavy load rejected nothing")
	}
	if st.Completed == 0 {
		t.Fatal("gated system completed nothing")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Per-class rejections account for every rejection.
	sum := 0
	for _, cs := range st.PerClass {
		sum += cs.Rejected
	}
	if sum != st.Rejected {
		t.Fatalf("per-class rejections sum to %d, total %d", sum, st.Rejected)
	}
	// Occupancy respects the gate capacity.
	if snap := m.Snapshot(); snap.GateHeld > 30 {
		t.Fatalf("gate held %d > capacity 30", snap.GateHeld)
	}
}

// TestGateWideOpenMatchesUngated pins the byte-identity contract: an enabled
// gate whose caps are never hit produces exactly the stats of the ungated
// (pre-gate) system, because the gate draws no randomness and touches no
// queue on the admit path.
func TestGateWideOpenMatchesUngated(t *testing.T) {
	run := func(conc, queue int) Stats {
		m := gatedModel(t, 150, conc, queue, 0, 42)
		m.Warmup(60)
		st, err := m.Run(120)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	gated, ungated := run(600, 600), run(0, 0)
	if gated.Rejected != 0 {
		t.Fatalf("wide-open gate rejected %d", gated.Rejected)
	}
	gated.Rejected, ungated.Rejected = 0, 0
	if gated.Completed != ungated.Completed || gated.MeanRT != ungated.MeanRT ||
		gated.P95RT != ungated.P95RT || gated.P99RT != ungated.P99RT ||
		gated.Throughput != ungated.Throughput || gated.Timeouts != ungated.Timeouts ||
		gated.Retransmits != ungated.Retransmits {
		t.Fatalf("wide-open gate diverged from ungated run:\n%+v\n%+v", gated, ungated)
	}
}

// TestArrivalsBalanceGateHeld pins the per-interval accounting identity
// behind Stats.Arrivals: a request admitted past the gate has either left it
// (completed or abandoned) or is still held, so
//
//	Arrivals − Rejected − (Completed − giveUps) == gateHeld(end) − gateHeld(start).
//
// Completed also counts the retrying browsers that gave up before reaching
// the gate, which Arrivals never saw: that is how an interval can report
// fewer arrivals than completions.
func TestArrivalsBalanceGateHeld(t *testing.T) {
	p := DefaultParams()
	// Caps above the listen backlog, so the gate both rejects and lets the
	// web queue fill.
	p.AdmitConcurrency, p.AdmitQueue = 120, 60
	m, err := New(Options{
		Calibration: fastCal(),
		Params:      &p,
		Workload:    tpcw.Workload{Mix: tpcw.Shopping, Clients: 1100},
		AppLevel:    vmenv.Level2,
		Seed:        3,
		AdmitEpoch:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(30)
	var giveUps, rejected int
	for interval, maxClients := range []int{150, 5, 5, 150, 600, 5} {
		// Five workers fill the listen backlog: SYN retransmits, then give-ups.
		p.MaxClients = maxClients
		if err := m.Configure(p); err != nil {
			t.Fatal(err)
		}
		held := m.gateHeld
		st, err := m.Run(45)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.Arrivals-st.Rejected-(st.Completed-m.giveUps), m.gateHeld-held; got != want {
			t.Fatalf("interval %d: arrivals %d − rejected %d − (completed %d − give-ups %d) = %d, gate held %d → %d",
				interval, st.Arrivals, st.Rejected, st.Completed, m.giveUps, got, held, m.gateHeld)
		}
		giveUps += m.giveUps
		rejected += st.Rejected
	}
	if giveUps == 0 || rejected == 0 {
		t.Fatalf("premise broken: %d give-ups, %d rejections", giveUps, rejected)
	}
}

// TestGateEpochAdaptsUnderOverload: caps of 5/2 refuse much of 600 clients'
// demand, but the Level-1 server finishes the few requests it admits well
// inside the SLA. Refusals the gate causes say nothing about the server, so
// the epoch loop must not end tightened against a server with headroom.
func TestGateEpochAdaptsUnderOverload(t *testing.T) {
	m := gatedModel(t, 600, 5, 2, 200, 13)
	m.Warmup(60)
	st, err := m.Run(240)
	if err != nil {
		t.Fatal(err)
	}
	scale, regime, epochs := m.AdmissionState()
	if epochs == 0 || st.Rejected == 0 {
		t.Fatalf("premise broken: %d epochs, %d rejections", epochs, st.Rejected)
	}
	if scale < 1 {
		t.Fatalf("gate ended at scale %g (%v) over a server with headroom, want ≥ 1", scale, regime)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGateEpochTightensOnLateWork: caps far above what the Level-1 server
// can serve inside the SLA admit work that runs late, so the epoch loop must
// end tightened.
func TestGateEpochTightensOnLateWork(t *testing.T) {
	m := gatedModel(t, 1500, 300, 150, 200, 13)
	m.Warmup(60)
	st, err := m.Run(240)
	if err != nil {
		t.Fatal(err)
	}
	scale, regime, epochs := m.AdmissionState()
	if epochs == 0 {
		t.Fatal("epoch loop never decided")
	}
	if st.P99RT <= 2 {
		t.Fatalf("premise broken: admitted work not late (p99 %.2fs)", st.P99RT)
	}
	if scale >= 1 || regime != admission.RegimeSpread {
		t.Fatalf("gate ended at scale %g (%v) over late admitted work, want < 1 and spread", scale, regime)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGateDeterminism replays an epoch-adaptive overload run and requires
// identical stats, including the rejection counters: the epoch loop ticks on
// request counts, never wall clock.
func TestGateDeterminism(t *testing.T) {
	run := func() Stats {
		m := gatedModel(t, 300, 30, 15, 150, 99)
		m.Warmup(60)
		st, err := m.Run(180)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Rejected != b.Rejected || a.Completed != b.Completed ||
		a.MeanRT != b.MeanRT || a.P99RT != b.P99RT || a.Timeouts != b.Timeouts {
		t.Fatalf("same seed produced different gated stats:\n%+v\n%+v", a, b)
	}
	for class, cs := range a.PerClass {
		if b.PerClass[class] != cs {
			t.Fatalf("class %v stats differ: %+v vs %+v", class, cs, b.PerClass[class])
		}
	}
}

// TestGateReconfigurePreservesScale checks the agent's reconfiguration path:
// new caps apply, the epoch loop's learned scale survives.
func TestGateReconfigureAppliesNewCaps(t *testing.T) {
	m := gatedModel(t, 400, 20, 10, 200, 7)
	m.Warmup(120)
	scaleBefore, _, epochs := m.AdmissionState()
	if epochs == 0 {
		t.Fatal("no epoch decisions during warmup")
	}
	p := m.Params()
	p.AdmitConcurrency = 40
	p.AdmitQueue = 20
	if err := m.Configure(p); err != nil {
		t.Fatal(err)
	}
	scaleAfter, _, _ := m.AdmissionState()
	if scaleAfter != scaleBefore {
		t.Fatalf("reconfiguration reset the epoch scale: %g -> %g", scaleBefore, scaleAfter)
	}
	m.Warmup(30)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
