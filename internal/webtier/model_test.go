package webtier

import (
	"math"
	"testing"

	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// fastCal returns a calibration with a coarser tick for faster tests.
func fastCal() *Calibration {
	cal := DefaultCalibration()
	cal.TickSeconds = 0.05
	return &cal
}

func newTestModel(t *testing.T, mix tpcw.Mix, clients int, level vmenv.Level, seed uint64) *Model {
	t.Helper()
	m, err := New(Options{
		Calibration: fastCal(),
		Workload:    tpcw.Workload{Mix: mix, Clients: clients},
		AppLevel:    level,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	good := tpcw.Workload{Mix: tpcw.Shopping, Clients: 10}
	if _, err := New(Options{Workload: tpcw.Workload{}}); err == nil {
		t.Fatal("empty workload accepted")
	}
	bad := DefaultParams()
	bad.MaxClients = 0
	if _, err := New(Options{Workload: good, Params: &bad}); err == nil {
		t.Fatal("invalid params accepted")
	}
	zeroTick := DefaultCalibration()
	zeroTick.TickSeconds = 0
	if _, err := New(Options{Workload: good, Calibration: &zeroTick}); err == nil {
		t.Fatal("zero tick accepted")
	}
}

func TestDefaultLevelIsLevel1(t *testing.T) {
	m, err := New(Options{Workload: tpcw.Workload{Mix: tpcw.Shopping, Clients: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.AppLevel() != vmenv.Level1 {
		t.Fatalf("default level %v", m.AppLevel())
	}
}

func TestRunProducesTraffic(t *testing.T) {
	m := newTestModel(t, tpcw.Shopping, 100, vmenv.Level1, 1)
	st, err := m.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if st.MeanRT <= 0 {
		t.Fatalf("MeanRT = %v", st.MeanRT)
	}
	if st.P95RT < st.MeanRT*0.5 {
		t.Fatalf("implausible P95 %v vs mean %v", st.P95RT, st.MeanRT)
	}
	if st.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
	// Closed-loop sanity: throughput cannot exceed clients/think-time floor.
	if st.Throughput > 100 {
		t.Fatalf("throughput %v exceeds any feasible rate", st.Throughput)
	}
}

func TestRunRejectsNonPositive(t *testing.T) {
	m := newTestModel(t, tpcw.Shopping, 10, vmenv.Level1, 1)
	if _, err := m.Run(0); err == nil {
		t.Fatal("Run(0) accepted")
	}
	if _, err := m.Run(-5); err == nil {
		t.Fatal("Run(-5) accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		m := newTestModel(t, tpcw.Ordering, 80, vmenv.Level2, 99)
		m.Warmup(60)
		st, err := m.Run(120)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.MeanRT != b.MeanRT || a.Completed != b.Completed ||
		a.Throughput != b.Throughput || a.P95RT != b.P95RT ||
		a.Retransmits != b.Retransmits || a.Timeouts != b.Timeouts {
		t.Fatalf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
	if len(a.PerClass) != len(b.PerClass) {
		t.Fatal("per-class maps differ")
	}
	for class, cs := range a.PerClass {
		if b.PerClass[class] != cs {
			t.Fatalf("class %v stats differ: %+v vs %+v", class, cs, b.PerClass[class])
		}
	}
}

func TestSeedsChangeOutcome(t *testing.T) {
	rt := func(seed uint64) float64 {
		m := newTestModel(t, tpcw.Ordering, 80, vmenv.Level2, seed)
		m.Warmup(30)
		st, _ := m.Run(60)
		return st.MeanRT
	}
	if rt(1) == rt(2) {
		t.Fatal("different seeds produced identical response times")
	}
}

func TestInvariantsHoldDuringRun(t *testing.T) {
	m := newTestModel(t, tpcw.Ordering, 120, vmenv.Level3, 7)
	for i := 0; i < 60; i++ {
		m.Warmup(5)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after %ds: %v", (i+1)*5, err)
		}
	}
}

func TestInvariantsAcrossReconfiguration(t *testing.T) {
	m := newTestModel(t, tpcw.Ordering, 100, vmenv.Level1, 11)
	m.Warmup(60)
	p := m.Params()
	p.MaxClients = 50
	p.MaxThreads = 50
	if err := m.Configure(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Warmup(5)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after shrink, step %d: %v", i, err)
		}
	}
	p.MaxClients = 600
	p.MaxThreads = 600
	if err := m.Configure(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Warmup(5)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after grow, step %d: %v", i, err)
		}
	}
}

func TestConfigureRejectsInvalid(t *testing.T) {
	m := newTestModel(t, tpcw.Shopping, 10, vmenv.Level1, 1)
	p := m.Params()
	p.SessionTimeoutMin = 0
	if err := m.Configure(p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestSetWorkloadSwitchesMix(t *testing.T) {
	m := newTestModel(t, tpcw.Shopping, 50, vmenv.Level1, 3)
	m.Warmup(30)
	if err := m.SetWorkload(tpcw.Workload{Mix: tpcw.Ordering, Clients: 80}); err != nil {
		t.Fatal(err)
	}
	if m.Workload().Mix != tpcw.Ordering || m.Workload().Clients != 80 {
		t.Fatalf("workload = %v", m.Workload())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed == 0 {
		t.Fatal("no traffic after workload change")
	}
	if err := m.SetWorkload(tpcw.Workload{}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestSetAppLevelTakesEffect(t *testing.T) {
	m := newTestModel(t, tpcw.Ordering, 150, vmenv.Level1, 5)
	if err := m.SetAppLevel(vmenv.Level3); err != nil {
		t.Fatal(err)
	}
	if m.AppLevel() != vmenv.Level3 {
		t.Fatal("level not applied")
	}
	if err := m.SetAppLevel(vmenv.Level{}); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestWeakerVMIsSlower(t *testing.T) {
	measure := func(level vmenv.Level) float64 {
		var total float64
		for seed := uint64(1); seed <= 3; seed++ {
			m := newTestModel(t, tpcw.Ordering, 400, level, seed)
			m.Warmup(120)
			st, err := m.Run(240)
			if err != nil {
				t.Fatal(err)
			}
			total += st.MeanRT
		}
		return total / 3
	}
	l1 := measure(vmenv.Level1)
	l3 := measure(vmenv.Level3)
	if l3 <= l1 {
		t.Fatalf("Level-3 (%v s) not slower than Level-1 (%v s)", l3, l1)
	}
}

func TestOrderingHeavierDownstream(t *testing.T) {
	// Ordering-dominated traffic must load the app/db VM markedly harder
	// than browsing-dominated traffic (the structural property behind paper
	// Fig. 1; the mixes' mean response times can sit close at light load, so
	// utilization is the robust discriminator).
	measure := func(mix tpcw.Mix) (rt, util float64) {
		for seed := uint64(1); seed <= 3; seed++ {
			m := newTestModel(t, mix, 800, vmenv.Level3, seed)
			m.Warmup(120)
			st, err := m.Run(300)
			if err != nil {
				t.Fatal(err)
			}
			rt += st.MeanRT / 3
			util += st.AppVMUtil / 3
		}
		return rt, util
	}
	oRT, oUtil := measure(tpcw.Ordering)
	bRT, bUtil := measure(tpcw.Browsing)
	if oUtil <= bUtil {
		t.Fatalf("ordering app/db utilization %v not above browsing %v", oUtil, bUtil)
	}
	if oRT < bRT*0.5 {
		t.Fatalf("ordering RT %v implausibly below browsing %v", oRT, bRT)
	}
}

func TestMoreClientsMoreThroughput(t *testing.T) {
	x := func(clients int) float64 {
		m := newTestModel(t, tpcw.Shopping, clients, vmenv.Level1, 17)
		m.Warmup(60)
		st, err := m.Run(120)
		if err != nil {
			t.Fatal(err)
		}
		return st.Throughput
	}
	if x50, x200 := x(50), x(200); x200 <= x50 {
		t.Fatalf("throughput did not scale: %v vs %v", x50, x200)
	}
}

func TestLowMaxClientsLimitsInFlight(t *testing.T) {
	p := DefaultParams()
	p.MaxClients = 50
	m, err := New(Options{
		Calibration: fastCal(),
		Params:      &p,
		Workload:    tpcw.Workload{Mix: tpcw.Ordering, Clients: 600},
		AppLevel:    vmenv.Level3,
		Seed:        23,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(120)
	st, err := m.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanInFlight > 50.5 {
		t.Fatalf("in-flight %v exceeds MaxClients 50", st.MeanInFlight)
	}
	if snap := m.Snapshot(); snap.InFlight > 50 {
		t.Fatalf("snapshot in-flight %d exceeds cap", snap.InFlight)
	}
}

func TestJammedSystemStillReportsSignal(t *testing.T) {
	// A pathological configuration must still produce a strong negative
	// signal (large response time), not a zero measurement.
	p := DefaultParams()
	p.MaxClients = 1
	p.MaxThreads = 1
	m, err := New(Options{
		Calibration: fastCal(),
		Params:      &p,
		Workload:    tpcw.Workload{Mix: tpcw.Ordering, Clients: 500},
		AppLevel:    vmenv.Level3,
		Seed:        29,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(60)
	st, err := m.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanRT < 1 {
		t.Fatalf("jammed system reported MeanRT %v", st.MeanRT)
	}
}

func TestSnapshotConsistentWithInvariants(t *testing.T) {
	m := newTestModel(t, tpcw.Shopping, 100, vmenv.Level2, 31)
	m.Warmup(90)
	snap := m.Snapshot()
	if snap.WebSpawned < 1 || snap.AppSpawned < 1 {
		t.Fatalf("pools empty: %+v", snap)
	}
	if snap.DBConns > DefaultCalibration().DBMaxConns {
		t.Fatalf("db connections %d over cap", snap.DBConns)
	}
	if snap.IdleConns > snap.Conns {
		t.Fatalf("idle %d > total conns %d", snap.IdleConns, snap.Conns)
	}
}

func TestParamsFromConfigRoundTrip(t *testing.T) {
	space := configDefault(t)
	cfg := space.DefaultConfig()
	p, err := ParamsFromConfig(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxClients != 150 || p.MaxThreads != 200 {
		t.Fatalf("params %+v", p)
	}
	if p.KeepAliveTimeoutSec != 15 {
		t.Fatalf("keepalive %v", p.KeepAliveTimeoutSec)
	}
}

func TestParamsValidateBounds(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.KeepAliveTimeoutSec = -1
	if bad.Validate() == nil {
		t.Fatal("negative keepalive accepted")
	}
	bad = p
	bad.MinSpareServers = -1
	if bad.Validate() == nil {
		t.Fatal("negative spare accepted")
	}
	bad = p
	bad.MaxThreads = 0
	if bad.Validate() == nil {
		t.Fatal("zero MaxThreads accepted")
	}
	// The timeouts are bounded at one day: beyond that a time.Duration of
	// them can overflow.
	day := p
	day.KeepAliveTimeoutSec, day.SessionTimeoutMin = 24*60*60, 24*60
	if err := day.Validate(); err != nil {
		t.Fatalf("day-long timeouts rejected: %v", err)
	}
	for _, v := range []float64{day.KeepAliveTimeoutSec + 1, 1e300, math.NaN()} {
		bad = p
		bad.KeepAliveTimeoutSec = v
		if bad.Validate() == nil {
			t.Fatalf("keepalive %v s accepted", v)
		}
	}
	for _, v := range []float64{day.SessionTimeoutMin + 1, 1e300, math.NaN()} {
		bad = p
		bad.SessionTimeoutMin = v
		if bad.Validate() == nil {
			t.Fatalf("session timeout %v min accepted", v)
		}
	}
}

func TestAbandonmentBoundsJam(t *testing.T) {
	// A collapse-prone configuration (huge MaxClients on the weak VM) must
	// stay bounded by the browser timeout and keep invariants intact.
	p := DefaultParams()
	p.MaxClients = 600
	p.MaxThreads = 600
	m, err := New(Options{
		Calibration: fastCal(),
		Params:      &p,
		Workload:    tpcw.Workload{Mix: tpcw.Ordering, Clients: 1100},
		AppLevel:    vmenv.Level3,
		Seed:        41,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(200)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	timeout := DefaultCalibration().RequestTimeoutSec
	if st.MeanRT > timeout+1 {
		t.Fatalf("mean RT %v exceeds browser timeout %v", st.MeanRT, timeout)
	}
	if st.MeanRT < 2 {
		t.Fatalf("premise broken: MaxClients=600 at Level-3 should jam, got %v", st.MeanRT)
	}
	// Recovery: a sane configuration must drain the jam within a few
	// intervals.
	good := DefaultParams()
	good.MaxClients = 150
	if err := m.Configure(good); err != nil {
		t.Fatal(err)
	}
	m.Warmup(120)
	st2, err := m.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st2.MeanRT >= st.MeanRT {
		t.Fatalf("system did not recover: %v -> %v", st.MeanRT, st2.MeanRT)
	}
}

func TestPerClassBreakdown(t *testing.T) {
	m := newTestModel(t, tpcw.Ordering, 200, vmenv.Level1, 9)
	m.Warmup(60)
	st, err := m.Run(180)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PerClass) == 0 {
		t.Fatal("no per-class stats")
	}
	total := 0
	for class, cs := range st.PerClass {
		if cs.Completed <= 0 || cs.MeanRT <= 0 {
			t.Fatalf("%v: %+v", class, cs)
		}
		total += cs.Completed
	}
	if total != st.Completed {
		t.Fatalf("per-class counts sum to %d, completed %d", total, st.Completed)
	}
	// Under the ordering mix, cart+buy must be a substantial share.
	orderShare := float64(st.PerClass[tpcw.ClassShoppingCart].Completed+
		st.PerClass[tpcw.ClassBuyConfirm].Completed) / float64(total)
	if orderShare < 0.35 || orderShare > 0.65 {
		t.Fatalf("ordering share %v, want ~0.5", orderShare)
	}
}

// Params returns the current configuration.
func (m *Model) Params() Params { return m.params }

// Now returns the virtual time in seconds since construction.
func (m *Model) Now() float64 { return m.now }

// Snapshot exposes internal occupancy counters for tests and diagnostics.
type Snapshot struct {
	InFlight   int
	WebActive  int
	AppActive  int
	DBCPU      int
	DBIO       int
	Threads    int
	DBConns    int
	Conns      int
	IdleConns  int
	WebSpawned int
	AppSpawned int
	WebQueue   int
	AppQueue   int
	DBQueue    int
	Sessions   int
	GateHeld   int
}

// Snapshot returns the current occupancy counters.
func (m *Model) Snapshot() Snapshot {
	return Snapshot{
		InFlight:   m.inFlight,
		WebActive:  m.webActive,
		AppActive:  m.appActive,
		DBCPU:      m.dbCPU,
		DBIO:       m.dbIO,
		Threads:    m.threads,
		DBConns:    m.dbConns,
		Conns:      m.conns,
		IdleConns:  m.idleConns,
		WebSpawned: m.webSpawned,
		AppSpawned: m.appSpawned,
		WebQueue:   m.webQueue.len(),
		AppQueue:   m.appQueue.len(),
		DBQueue:    m.dbQueue.len(),
		Sessions:   m.liveSessions(),
		GateHeld:   m.gateHeld,
	}
}
