package webtier

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// referenceTick is the tick as it stood before the client indexes: the same
// Model and the same transitions (issueRequest, completeRequest,
// abandonRequest, admit*, adjustPools, finishPhase), but the clients that are
// due are found by walking m.clients in index order, every in-flight request
// is checked against the browser timeout and advanced in one ascending pass
// (advance), live sessions are counted by scan and the buffer-cache factor is
// computed afresh. It never reads the indexes; the transitions go on writing
// them.
func referenceTick(m *Model) {
	dt := m.cal.TickSeconds
	t := m.now

	for i := range m.clients {
		c := &m.clients[i]
		if c.mode == modeThinking && c.hasConn && c.connExpires <= t {
			c.hasConn = false
			m.conns--
			m.idleConns--
		}
	}

	if m.cal.RequestTimeoutSec > 0 {
		for i := range m.clients {
			c := &m.clients[i]
			if c.mode == modeInFlight && t-c.started >= m.cal.RequestTimeoutSec {
				m.abandonRequest(i, t)
			}
		}
	}
	for i := range m.clients {
		c := &m.clients[i]
		if c.mode != modeThinking || c.thinkUntil > t {
			continue
		}
		m.issueRequest(i, t)
	}

	m.adjustPools(dt)

	m.admitDB()
	m.admitApp()
	m.admitWeb()

	ioFactor := referenceIOFactor(m, referenceLiveSessions(m))
	webRate, appRate, ioRate := m.serviceRates(t)
	for i := range m.clients {
		if m.clients[i].mode == modeInFlight {
			m.advance(i, dt, t, ioFactor, webRate, appRate, ioRate)
		}
	}

	if m.recording {
		m.sampleGauges(ioFactor)
	}

	m.deadSession.prune(t)
	m.now = t + dt
}

// advance gives in-flight client i's request one tick of service at the
// rate of its phase; queued requests wait.
func (m *Model) advance(i int, dt, t, ioFactor, webRate, appRate, ioRate float64) {
	var rate float64
	switch m.clients[i].phase {
	case phaseWeb:
		rate = webRate
	case phaseApp, phaseDBCPU:
		rate = appRate
	case phaseDBIO:
		rate = ioRate
	default:
		return
	}
	m.remaining[i] -= rate * dt
	if m.remaining[i] <= 0 {
		m.finishPhase(i, m.clients[i].phase, t+dt, ioFactor)
	}
}

// referenceIOFactor is dbIOFactor without its memo.
func referenceIOFactor(m *Model, sessions int) float64 {
	cache := math.Max(float64(m.appVM.Level().MemoryMB)-m.appVMMemUsedMB(sessions), m.cal.DBMinCacheMB)
	return math.Pow(m.cal.DBRefCacheMB/cache, m.cal.DBIOExponent)
}

// referenceLiveSessions counts server-side session objects by scan: sessions
// of current clients that have not expired plus abandoned sessions still
// within their timeout.
func referenceLiveSessions(m *Model) int {
	n := m.deadSession.len()
	for i := range m.clients {
		c := &m.clients[i]
		if c.hasSession && c.sessionExpires > m.now {
			n++
		}
	}
	return n
}

// twins is an indexed model and its scanning reference, built from one set of
// options and driven in lockstep.
type twins struct {
	t        *testing.T
	name     string
	got, ref *Model
	ticks    int
}

func newTwins(t *testing.T, name string, opts Options) *twins {
	t.Helper()
	got, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &twins{t: t, name: name, got: got, ref: ref}
}

// run advances both models by the given virtual duration, comparing their
// whole state after every tick and, when recording, the interval statistics
// bit for bit (returned for premise checks).
func (tw *twins) run(seconds float64, record bool) Stats {
	tw.t.Helper()
	if record {
		tw.got.startRecording()
		tw.ref.startRecording()
	}
	for n := int(math.Ceil(seconds / tw.got.cal.TickSeconds)); n > 0; n-- {
		tw.got.tick()
		referenceTick(tw.ref)
		tw.ticks++
		tw.compare()
	}
	if err := tw.got.CheckInvariants(); err != nil {
		tw.t.Fatalf("%s, tick %d: %v", tw.name, tw.ticks, err)
	}
	if !record {
		return Stats{}
	}
	// %b prints every float as exact mantissa and exponent and maps in key
	// order, so equal strings mean equal bits in every field.
	got, ref := tw.got.stopRecording(), tw.ref.stopRecording()
	if fmt.Sprintf("%b", got) != fmt.Sprintf("%b", ref) {
		tw.t.Fatalf("%s, tick %d: stats differ\n got %+v\n ref %+v", tw.name, tw.ticks, got, ref)
	}
	return got
}

// both applies one reconfiguration to each model.
func (tw *twins) both(change func(*Model) error) {
	tw.t.Helper()
	for _, m := range []*Model{tw.got, tw.ref} {
		if err := change(m); err != nil {
			tw.t.Fatal(err)
		}
	}
	tw.compare()
}

func (tw *twins) compare() {
	tw.t.Helper()
	got, ref := tw.got, tw.ref
	fail := func(format string, args ...any) {
		tw.t.Helper()
		tw.t.Fatalf("%s, tick %d (t=%v): "+format, append([]any{tw.name, tw.ticks, ref.now}, args...)...)
	}
	if math.Float64bits(got.now) != math.Float64bits(ref.now) {
		fail("clock %v, reference %v", got.now, ref.now)
	}
	if !slices.Equal(got.clients, ref.clients) {
		for i := range ref.clients {
			if got.clients[i] != ref.clients[i] {
				fail("client %d\n got %+v\n ref %+v", i, got.clients[i], ref.clients[i])
			}
		}
		fail("population %d, reference %d", len(got.clients), len(ref.clients))
	}
	for i, r := range ref.remaining {
		if math.Float64bits(got.remaining[i]) != math.Float64bits(r) {
			fail("client %d has %v work left, reference %v", i, got.remaining[i], r)
		}
	}
	want := ref.Snapshot()
	want.Sessions = referenceLiveSessions(ref)
	if snap := got.Snapshot(); snap != want {
		fail("snapshot\n got %+v\n ref %+v", snap, want)
	}
	for _, q := range []struct {
		name     string
		got, ref *queue
	}{
		{"web", &got.webQueue, &ref.webQueue},
		{"app", &got.appQueue, &ref.appQueue},
		{"db", &got.dbQueue, &ref.dbQueue},
	} {
		if !slices.Equal(q.got.items[q.got.head:], q.ref.items[q.ref.head:]) {
			fail("%s queue\n got %v\n ref %v", q.name, q.got.items[q.got.head:], q.ref.items[q.ref.head:])
		}
	}
	gd, rd := &got.deadSession.q, &ref.deadSession.q
	if !slices.Equal(gd.items[gd.head:], rd.items[rd.head:]) {
		fail("dead sessions differ")
	}
	if math.Float64bits(got.stallUntil) != math.Float64bits(ref.stallUntil) ||
		math.Float64bits(got.nextStall) != math.Float64bits(ref.nextStall) {
		fail("stall process: got %v/%v, ref %v/%v", got.stallUntil, got.nextStall, ref.stallUntil, ref.nextStall)
	}
	if got.rng.State() != ref.rng.State() {
		fail("the next RNG draw differs")
	}
}

// variant is one parameter set of the differential grid.
type variant struct {
	name  string
	epoch int // Options.AdmitEpoch
	edit  func(*Params)
	cal   func(*Calibration) // nil keeps the grid's calibration
}

// referenceVariants are picked so that each reaches a path the indexes touch.
var referenceVariants = []variant{
	{"default", 0, func(*Params) {}, nil},
	// Five workers: the listen backlog of 64 fills (SYN retransmits) and the
	// 30 s browser timeout abandons queued and retrying requests.
	{"maxclients5", 0, func(p *Params) { p.MaxClients = 5 }, nil},
	{"keepalive0", 0, func(p *Params) { p.KeepAliveTimeoutSec = 0 }, nil},
	{"keepalive1", 0, func(p *Params) { p.KeepAliveTimeoutSec = 1 }, nil},
	{"keepalive21", 0, func(p *Params) { p.KeepAliveTimeoutSec = 21 }, nil},
	{"session1", 0, func(p *Params) { p.SessionTimeoutMin = 1 }, nil},
	{"session35", 0, func(p *Params) { p.SessionTimeoutMin = 35 }, nil},
	{"gate", 50, func(p *Params) { p.AdmitConcurrency, p.AdmitQueue = 40, 20 }, nil},
	// A 1.5 s browser timeout: the timeout pass's skip and its scan (with
	// the recount of the oldest bound) toggle nearly every tick.
	{"timeout1.5", 0, func(*Params) {}, func(c *Calibration) { c.RequestTimeoutSec = 1.5 }},
	// No browser timeout: the pass never runs.
	{"timeout0", 0, func(*Params) {}, func(c *Calibration) { c.RequestTimeoutSec = 0 }},
}

// TestTickMatchesReference drives twin models from one seed — the indexed
// tick and the scanning tick it replaced — and requires identical state after
// every single tick and bit-identical interval statistics, across population
// sizes, mixes, VM levels and parameter sets, with the session timeout raised
// and lowered, the VM reallocated and the population resized and re-mixed
// mid-run.
func TestTickMatchesReference(t *testing.T) {
	populations := []int{50, 400, 1100, 3000}
	if testing.Short() || raceDetector {
		populations = populations[:2]
	}
	// A 200 ms slice makes several browsers due in most ticks, which is what
	// the ordering rules are about, and covers the virtual minutes the
	// timeouts need in fewer ticks.
	grid := DefaultCalibration()
	grid.TickSeconds = 0.2
	levels := vmenv.Levels()
	for _, clients := range populations {
		for mi, mix := range tpcw.Mixes() {
			for li, level := range levels {
				for vi, v := range referenceVariants {
					params := DefaultParams()
					v.edit(&params)
					cal := grid
					if v.cal != nil {
						v.cal(&cal)
					}
					name := fmt.Sprintf("%d/%v/%s/%s", clients, mix, level.Name, v.name)
					tw := newTwins(t, name, Options{
						Calibration: &cal,
						Params:      &params,
						Workload:    tpcw.Workload{Mix: mix, Clients: clients},
						AppLevel:    level,
						Seed:        uint64(1 + clients + 100*mi + 10*li + vi),
						AdmitEpoch:  v.epoch,
						SLOSeconds:  2,
					})
					referenceScript(tw, params, tpcw.Mixes()[(mi+1)%3], levels[(li+1)%3])
				}
			}
		}
	}
}

// TestTickMatchesReferenceDefaultSlice repeats the comparison at the shipped
// 25 ms slice, where most ticks have nothing due.
func TestTickMatchesReferenceDefaultSlice(t *testing.T) {
	params := DefaultParams()
	tw := newTwins(t, "default slice", Options{
		Workload: tpcw.Workload{Mix: tpcw.Ordering, Clients: 1100},
		AppLevel: vmenv.Level3,
		Seed:     7,
	})
	referenceScript(tw, params, tpcw.Browsing, vmenv.Level1)
}

// TestRearmedAtNowWaitsForNextTick zeroes the SYN-retransmit delay, so every
// browser bounced off the full backlog is re-armed at exactly the current
// tick's time. The scanning tick visited each browser once per tick; the
// indexed tick must not pick the re-armed ones up again in the same pass.
func TestRearmedAtNowWaitsForNextTick(t *testing.T) {
	cal := DefaultCalibration()
	cal.TickSeconds = 0.2
	cal.RetransmitBaseSec = 0
	params := DefaultParams()
	params.MaxClients = 5
	tw := newTwins(t, "zero retransmit delay", Options{
		Calibration: &cal,
		Params:      &params,
		Workload:    tpcw.Workload{Mix: tpcw.Shopping, Clients: 1100},
		AppLevel:    vmenv.Level2,
		Seed:        3,
	})
	tw.run(20, false)
	if st := tw.run(60, true); st.Retransmits == 0 || st.Timeouts == 0 {
		t.Fatalf("premise broken: %d retransmits, %d timeouts", st.Retransmits, st.Timeouts)
	}
}

// referenceScript is the mid-run reconfiguration sequence every grid cell
// goes through.
func referenceScript(tw *twins, params Params, nextMix tpcw.Mix, nextLevel vmenv.Level) {
	tw.t.Helper()
	tw.run(35, false)
	tw.run(30, true)

	// Raised: live sessions re-arm later than the ones behind them.
	params.SessionTimeoutMin += 5
	tw.both(func(m *Model) error { return m.Configure(params) })
	tw.run(20, true)

	// Lowered: new expiries land before older, later ones.
	params.SessionTimeoutMin = 0.5
	tw.both(func(m *Model) error { return m.Configure(params) })
	tw.run(45, true)

	tw.both(func(m *Model) error { return m.SetAppLevel(nextLevel) })
	tw.run(15, true)

	// Population resize and mix change: every index is rebuilt.
	w := tpcw.Workload{Mix: nextMix, Clients: tw.got.workload.Clients*3/2 + 1}
	tw.both(func(m *Model) error { return m.SetWorkload(w) })
	tw.run(25, true)
	w.Clients /= 3
	tw.both(func(m *Model) error { return m.SetWorkload(w) })
	tw.run(10, true)
}
