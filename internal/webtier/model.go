package webtier

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/rac-project/rac/internal/admission"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/stats"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// phase is the position of an in-flight request in the pipeline. A request
// holds its web worker for its whole residence (the web tier proxies and
// blocks), its app thread from app admission until the database responds, and
// a database connection during both database phases.
type phase int

const (
	phaseNone    phase = iota
	phaseWebWait       // queued for admission (MaxClients / worker pool)
	phaseWeb           // consuming web-VM CPU
	phaseAppWait       // queued for a Tomcat thread (MaxThreads / pool)
	phaseApp           // consuming app/db-VM CPU
	phaseDBWait        // queued for a database connection
	phaseDBCPU         // consuming app/db-VM CPU inside MySQL
	phaseDBIO          // waiting on disk I/O
)

// clientMode is what an emulated browser is currently doing.
type clientMode int

const (
	modeThinking clientMode = iota + 1
	modeInFlight
)

type client struct {
	mode       clientMode
	thinkUntil float64

	// Open keep-alive connection, if any.
	hasConn     bool
	connExpires float64

	// Server-side session state.
	hasSession     bool
	sessionExpires float64

	// Current request. The work left in the current phase is Model.remaining.
	phase     phase
	webWork   float64
	appWork   float64
	dbCPUWork float64
	dbIOWork  float64
	started   float64
	class     tpcw.Class

	// SYN-retransmit state for requests bounced off a full listen backlog.
	retryPending bool
	retries      int
}

// classSlots sizes the per-class accumulators, which are indexed by
// tpcw.Class (1-based).
const classSlots = int(tpcw.ClassAdmin) + 1

// Stats summarize one measurement interval of the simulated system.
type Stats struct {
	// Interval is the measured virtual duration in seconds.
	Interval float64
	// Completed is the number of requests that finished in the interval.
	Completed int
	// MeanRT, P95RT, P99RT are response-time statistics in seconds.
	MeanRT float64
	P95RT  float64
	P99RT  float64
	// Throughput is completed requests per second.
	Throughput float64
	// MeanInFlight is the time-averaged number of admitted requests.
	MeanInFlight float64
	// MeanWaiting is the time-averaged admission-queue length.
	MeanWaiting float64
	// AppVMUtil is the time-averaged CPU utilization of the app/db VM.
	AppVMUtil float64
	// WebWorkers and AppThreads are time-averaged pool sizes.
	WebWorkers float64
	AppThreads float64
	// IOFactor is the time-averaged DB cache miss amplification.
	IOFactor float64
	// Retransmits counts connection attempts bounced off a full backlog.
	Retransmits int
	// Timeouts counts requests abandoned at the browser timeout.
	Timeouts int
	// GoodCompleted counts completions within the SLO threshold given at
	// construction (Options.SLOSeconds) — the numerator of SLO-goodput. When
	// no threshold was set it equals Completed.
	GoodCompleted int
	// Rejected counts arrivals fast-rejected (503) by the admission gate.
	// Rejections are not response-time samples: the gate's point is to keep
	// excess arrivals off the latency books.
	Rejected int
	// Arrivals counts requests reaching the admission decision (admitted +
	// rejected). Retransmit bounces and retry-timeout giveups never reach the
	// gate and are excluded, so Arrivals − Completed − Rejected trends the
	// in-system backlog: the offered-vs-completed signal saturation analysis
	// keys on.
	Arrivals int
	// PerClass breaks completed-request response times down by interaction
	// class (TPC-W reports per-interaction WIRT compliance).
	PerClass map[tpcw.Class]ClassStats
}

// ClassStats summarizes one interaction class within an interval.
type ClassStats struct {
	Completed int
	MeanRT    float64
	Rejected  int
}

// Model is the simulated three-tier website. It is not safe for concurrent
// use; drive it from a single goroutine.
type Model struct {
	cal      Calibration
	params   Params
	workload tpcw.Workload
	gen      *tpcw.Generator
	rng      *sim.RNG

	appVM *vmenv.VM
	now   float64

	// SLO admission gate in front of the web tier. gateHeld counts requests
	// admitted past the gate and still resident (every modeInFlight client,
	// queued or in service); the epoch loop inside the controller ticks on
	// request counts, so replays stay byte-identical at any -procs setting.
	gate     *admission.Controller
	gateHeld int

	// slo is the GoodCompleted threshold (Options.SLOSeconds; 0 = none).
	slo float64

	// Stall process of the app/db VM (GC / checkpoint pauses).
	stallUntil float64
	nextStall  float64

	clients []client
	// remaining[i] is the work left in client i's current service phase,
	// kept apart from clients so a service sweep touches 8 bytes per request.
	remaining []float64

	// Indexes over clients, maintained at the state transitions (see
	// CheckInvariants), so a tick visits only the browsers that are due or in
	// service instead of walking the population.
	inFlightSet clientSet // mode == modeInFlight
	inWeb       clientSet // phase == phaseWeb
	inApp       clientSet // phase == phaseApp
	inDBCPU     clientSet // phase == phaseDBCPU
	inDBIO      clientSet // phase == phaseDBIO
	think       calendar  // thinkUntil of every thinking client
	keepAlive   calendar  // connExpires of thinking clients holding a connection
	sessions    calendar  // sessionExpires of sessions live at m.now
	due         []int32   // scratch for popDue, capacity len(clients)
	// oldest is a lower bound on the start time of every in-flight request,
	// lowered at issue and recounted exactly by the timeout pass, which runs
	// only when a request can have timed out (abandonTimedOut).
	oldest float64

	// ioMemo caches dbIOFactor's math.Pow by cache size.
	ioMemo ioMemo

	// FIFO queues of client indices.
	webQueue queue
	appQueue queue
	dbQueue  queue

	// Pool state.
	webSpawned  int
	appSpawned  int
	webSpawnCr  float64
	webReapCr   float64
	appSpawnCr  float64
	appReapCr   float64
	deadSession fifoExpiry

	// Derived counters, maintained incrementally (see CheckInvariants).
	inFlight  int // requests holding a web worker slot
	webActive int // requests in phaseWeb
	appActive int // requests in phaseApp
	dbCPU     int // requests in phaseDBCPU
	dbIO      int // requests in phaseDBIO
	threads   int // busy Tomcat threads: phaseApp..phaseDBIO + dbQueue
	dbConns   int // busy DB connections: phaseDBCPU + phaseDBIO
	conns     int // open keep-alive connections (idle + in-flight)
	idleConns int // open connections of thinking/queued clients

	// Measurement accumulators.
	recording  bool
	retransmit int
	timeouts   int
	rejected   int
	arrivals   int
	// giveUps counts retrying browsers that gave up before reaching the
	// gate: recorded in rts and timeouts, but never in arrivals.
	giveUps    int
	rts        []float64
	classRT    [classSlots]stats.Running
	classRej   [classSlots]int
	recStart   float64
	gInFlight  float64
	gWaiting   float64
	gUtil      float64
	gWorkers   float64
	gThreads   float64
	gIOFactor  float64
	gaugeTicks int
}

// Options configure a new Model.
type Options struct {
	// Calibration defaults to DefaultCalibration when zero-valued.
	Calibration *Calibration
	// Params defaults to DefaultParams when nil.
	Params *Params
	// Workload is required.
	Workload tpcw.Workload
	// AppLevel is the initial allocation of the app/db VM; defaults to
	// Level-1.
	AppLevel vmenv.Level
	// Seed drives all randomness.
	Seed uint64
	// AdmitEpoch enables the gate's epoch-adaptive loop with the given epoch
	// size in requests (0 disables adaptation: the configured caps apply
	// unscaled). Only meaningful when the Params enable the gate.
	AdmitEpoch int
	// SLOSeconds, when positive, makes Stats.GoodCompleted count only the
	// completions at or under this response time. Pure accounting: it never
	// changes the simulation itself.
	SLOSeconds float64
}

// New builds a simulated website.
func New(opts Options) (*Model, error) {
	cal := DefaultCalibration()
	if opts.Calibration != nil {
		cal = *opts.Calibration
	}
	if cal.TickSeconds <= 0 {
		return nil, fmt.Errorf("webtier: non-positive tick %v", cal.TickSeconds)
	}
	params := DefaultParams()
	if opts.Params != nil {
		params = *opts.Params
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Workload.Validate(); err != nil {
		return nil, err
	}
	level := opts.AppLevel
	if !level.Valid() {
		level = vmenv.Level1
	}
	appVM, err := vmenv.NewVM("appdb", level)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(opts.Seed)
	gen, err := tpcw.NewGenerator(opts.Workload.Mix, rng.Split())
	if err != nil {
		return nil, err
	}
	epoch := admission.EpochConfig{}
	if opts.AdmitEpoch > 0 {
		epoch = admission.EpochWith(opts.AdmitEpoch)
	}
	gate, err := admission.NewController(admission.Params{
		MaxConcurrent: params.AdmitConcurrency,
		MaxQueue:      params.AdmitQueue,
	}, epoch)
	if err != nil {
		return nil, err
	}
	m := &Model{
		cal:      cal,
		params:   params,
		workload: opts.Workload,
		gen:      gen,
		rng:      rng,
		appVM:    appVM,
		gate:     gate,
		slo:      opts.SLOSeconds,
	}
	m.resetPopulation()
	return m, nil
}

// resetPopulation rebuilds the browser population from scratch: all clients
// thinking with staggered timers, pools at their spare minimums, queues
// empty. Used at construction and when the workload changes.
func (m *Model) resetPopulation() {
	n := m.workload.Clients
	m.clients = make([]client, n)
	m.remaining = make([]float64, n)
	for _, s := range []*clientSet{&m.inFlightSet, &m.inWeb, &m.inApp, &m.inDBCPU, &m.inDBIO} {
		s.reset(n)
	}
	for _, c := range []*calendar{&m.think, &m.keepAlive, &m.sessions} {
		c.reset(n, m.cal.TickSeconds, m.now)
	}
	m.oldest = math.Inf(1)
	if cap(m.due) < n {
		m.due = make([]int32, 0, n)
	}
	for i := range m.clients {
		m.clients[i].mode = modeThinking
		m.armThink(i, m.now+m.rng.ExpFloat64(tpcw.MeanThinkTimeSeconds))
	}
	m.webQueue.reset()
	m.appQueue.reset()
	m.dbQueue.reset()
	m.deadSession.reset()
	m.inFlight, m.webActive, m.appActive, m.dbCPU, m.dbIO = 0, 0, 0, 0, 0
	m.threads, m.dbConns, m.conns, m.idleConns = 0, 0, 0, 0
	// The abrupt restart drops every resident request; the gate's learned
	// scale survives — it is the epoch loop's short-term memory.
	m.gateHeld = 0
	m.webSpawned = clampInt(m.params.MinSpareServers, 1, m.params.MaxClients)
	m.appSpawned = clampInt(m.params.MinSpareThreads, 1, m.params.MaxThreads)
	m.webSpawnCr, m.webReapCr, m.appSpawnCr, m.appReapCr = 0, 0, 0, 0
	m.stallUntil = m.now
	m.nextStall = m.now + m.rng.ExpFloat64(m.cal.StallMeanIntervalSec)
}

// Workload returns the current workload.
func (m *Model) Workload() tpcw.Workload { return m.workload }

// AppLevel returns the current app/db VM allocation.
func (m *Model) AppLevel() vmenv.Level { return m.appVM.Level() }

// Configure applies a new configuration to the running system. Pools shrink
// gracefully: spawned workers above the new cap are reaped down to the busy
// count immediately (a graceful restart), the rest adjust via pool dynamics.
func (m *Model) Configure(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.params = p
	if m.webSpawned > p.MaxClients {
		m.webSpawned = maxInt(m.webBusy(), p.MaxClients)
	}
	if m.appSpawned > p.MaxThreads {
		m.appSpawned = maxInt(m.threads, p.MaxThreads)
	}
	// The gate picks up the new caps for subsequent arrivals; the epoch
	// loop's scale and counters ride across the reconfiguration.
	return m.gate.SetParams(admission.Params{
		MaxConcurrent: p.AdmitConcurrency,
		MaxQueue:      p.AdmitQueue,
	})
}

// SetWorkload replaces the traffic: mix and/or population size. The browser
// population restarts (in-flight requests are abandoned), modelling an abrupt
// traffic change.
func (m *Model) SetWorkload(w tpcw.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if w.Mix != m.workload.Mix {
		gen, err := tpcw.NewGenerator(w.Mix, m.rng.Split())
		if err != nil {
			return err
		}
		m.gen = gen
	}
	m.workload = w
	m.resetPopulation()
	return nil
}

// SetAppLevel reallocates the app/db VM. In-flight work continues at the new
// capacity from the next tick, like a Xen credit/balloon adjustment.
func (m *Model) SetAppLevel(level vmenv.Level) error {
	return m.appVM.Reallocate(level)
}

// Run advances the simulation by the given virtual duration and returns the
// interval statistics.
func (m *Model) Run(seconds float64) (Stats, error) {
	if seconds <= 0 {
		return Stats{}, errors.New("webtier: non-positive run duration")
	}
	m.startRecording()
	ticks := int(math.Ceil(seconds / m.cal.TickSeconds))
	for i := 0; i < ticks; i++ {
		m.tick()
	}
	return m.stopRecording(), nil
}

// Warmup advances the simulation without recording, letting pools, sessions
// and queues reach steady state.
func (m *Model) Warmup(seconds float64) {
	if seconds <= 0 {
		return
	}
	ticks := int(math.Ceil(seconds / m.cal.TickSeconds))
	for i := 0; i < ticks; i++ {
		m.tick()
	}
}

func (m *Model) startRecording() {
	m.recording = true
	m.retransmit = 0
	m.timeouts = 0
	m.rejected = 0
	m.arrivals = 0
	m.giveUps = 0
	m.rts = m.rts[:0]
	m.classRT = [classSlots]stats.Running{}
	m.classRej = [classSlots]int{}
	m.recStart = m.now
	m.gInFlight, m.gWaiting, m.gUtil = 0, 0, 0
	m.gWorkers, m.gThreads, m.gIOFactor = 0, 0, 0
	m.gaugeTicks = 0
}

func (m *Model) stopRecording() Stats {
	m.recording = false
	interval := m.now - m.recStart
	s := Stats{
		Interval:    interval,
		Completed:   len(m.rts),
		Retransmits: m.retransmit,
		Timeouts:    m.timeouts,
		Rejected:    m.rejected,
		Arrivals:    m.arrivals,
	}
	// PerClass holds exactly the classes with a completion or a rejection.
	for class := range classSlots {
		run, rej := &m.classRT[class], m.classRej[class]
		if run.Count() == 0 && rej == 0 {
			continue
		}
		if s.PerClass == nil {
			s.PerClass = make(map[tpcw.Class]ClassStats)
		}
		s.PerClass[tpcw.Class(class)] = ClassStats{Completed: run.Count(), MeanRT: run.Mean(), Rejected: rej}
	}
	s.GoodCompleted = s.Completed
	if m.slo > 0 {
		s.GoodCompleted = 0
		for _, rt := range m.rts {
			if rt <= m.slo {
				s.GoodCompleted++
			}
		}
	}
	if len(m.rts) > 0 {
		sum := stats.Summarize(m.rts)
		s.MeanRT = sum.Mean
		s.P95RT = sum.P95
		s.P99RT = sum.P99
	} else {
		// No completions: the system is jammed. Report the age of the oldest
		// in-flight request as a pessimistic response-time stand-in so the
		// agent still receives a strong negative signal.
		oldest := 0.0
		for i := range m.clients {
			c := &m.clients[i]
			if c.mode == modeInFlight {
				if age := m.now - c.started; age > oldest {
					oldest = age
				}
			}
		}
		s.MeanRT = math.Max(oldest, interval)
		s.P95RT = s.MeanRT
		s.P99RT = s.MeanRT
	}
	if interval > 0 {
		s.Throughput = float64(len(m.rts)) / interval
	}
	if m.gaugeTicks > 0 {
		n := float64(m.gaugeTicks)
		s.MeanInFlight = m.gInFlight / n
		s.MeanWaiting = m.gWaiting / n
		s.AppVMUtil = m.gUtil / n
		s.WebWorkers = m.gWorkers / n
		s.AppThreads = m.gThreads / n
		s.IOFactor = m.gIOFactor / n
	}
	return s
}

// tick advances the simulation by one time slice.
func (m *Model) tick() {
	dt := m.cal.TickSeconds
	t := m.now

	// 1. Expire idle keep-alive connections (freeing their workers). Expiry
	// commutes, so calendar order will do.
	m.due = m.keepAlive.popDue(t, m.due[:0])
	for _, i := range m.due {
		m.clients[i].hasConn = false
		m.conns--
		m.idleConns--
	}

	// 2. Abandon requests older than the browser timeout, then issue new
	// requests for clients whose think time elapsed. Both go in ascending
	// client index: that order fixes the RNG draws, the response-time sample
	// order and the web queue. Every due thinker is popped before the first is
	// issued, so one re-armed at exactly t waits for the next tick.
	if m.cal.RequestTimeoutSec > 0 && t-m.oldest >= m.cal.RequestTimeoutSec {
		m.abandonTimedOut(t)
	}
	m.due = m.think.popDue(t, m.due[:0])
	slices.Sort(m.due)
	for _, i := range m.due {
		m.issueRequest(int(i), t)
	}

	// 3. Pool dynamics.
	m.adjustPools(dt)

	// 4. Admissions, upstream first so freed capacity is reused this tick.
	m.admitDB()
	m.admitApp()
	m.admitWeb()

	// 5. CPU and disk processing.
	ioFactor := m.dbIOFactor(m.liveSessions())
	m.process(dt, t, ioFactor)

	// 6. Gauges.
	if m.recording {
		m.sampleGauges(ioFactor)
	}

	m.deadSession.prune(t)
	m.now = t + dt
	// Sessions that are no longer live at the new m.now leave the index, so
	// liveSessions is exact whenever it is read.
	m.sessions.popDue(m.now, m.due[:0])
}

// abandonTimedOut abandons, in ascending client index, every in-flight
// request at least RequestTimeoutSec old, and recounts m.oldest exactly over
// the survivors. The tick calls it only when t-m.oldest reaches the timeout:
// float subtraction is monotone in its second operand, so started >= oldest
// implies t-started <= t-oldest, and no request can have timed out before.
func (m *Model) abandonTimedOut(t float64) {
	oldest := math.Inf(1)
	for w, word := range m.inFlightSet {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if started := m.clients[i].started; t-started >= m.cal.RequestTimeoutSec {
				m.abandonRequest(i, t)
			} else if started < oldest {
				oldest = started
			}
		}
	}
	m.oldest = oldest
}

// sampleGauges folds this tick's occupancies into the interval averages.
func (m *Model) sampleGauges(ioFactor float64) {
	m.gInFlight += float64(m.inFlight)
	m.gWaiting += float64(m.webQueue.len())
	m.gUtil += m.appVMUtilNow()
	m.gWorkers += float64(m.webSpawned)
	m.gThreads += float64(m.appSpawned)
	m.gIOFactor += ioFactor
	m.gaugeTicks++
}

// armThink sets when thinking client i next acts (issues, retries or gives
// up) — the only place thinkUntil is written, so the timer cannot be missed.
func (m *Model) armThink(i int, until float64) {
	m.clients[i].thinkUntil = until
	m.think.set(i, until)
}

// issueRequest turns a thinking client into a queued request, or bounces it
// off a full listen backlog with a retransmit delay when the client has no
// established connection.
func (m *Model) issueRequest(i int, t float64) {
	c := &m.clients[i]
	if !c.retryPending {
		class := m.gen.NextClass()
		demand := m.gen.RequestDemand(class)

		c.webWork = demand.Web
		if !c.hasConn {
			c.webWork += m.cal.ConnectCostSec
		}
		c.appWork = demand.App
		if !c.hasSession || c.sessionExpires <= t {
			c.appWork += m.cal.SessionCreateCostSec
			c.hasSession = false
		}
		c.dbCPUWork = demand.DB
		c.dbIOWork = demand.IO
		c.started = t
		c.class = class
		c.retries = 0
	}

	// A retrying browser gives up once the request is older than the
	// timeout, like its in-flight counterparts.
	if c.retryPending && m.cal.RequestTimeoutSec > 0 && t-c.started >= m.cal.RequestTimeoutSec {
		if m.recording {
			m.rts = append(m.rts, t-c.started)
			m.recordClass(c.class, t-c.started)
			m.timeouts++
			m.giveUps++
		}
		c.retryPending = false
		c.retries = 0
		m.armThink(i, t+m.rng.ExpFloat64(tpcw.MeanThinkTimeSeconds))
		return
	}

	// A fresh connection must pass the accept queue; an established
	// keep-alive connection is already past it.
	if !c.hasConn && m.webQueue.len() >= m.cal.ListenBacklog {
		delay := m.cal.RetransmitBaseSec * float64(int(1)<<uint(minInt(c.retries, 10)))
		if delay > m.cal.RetransmitMaxSec {
			delay = m.cal.RetransmitMaxSec
		}
		c.retries++
		c.retryPending = true
		m.armThink(i, t+delay)
		if m.recording {
			m.retransmit++
		}
		return
	}

	// SLO admission gate: a fast 503 on the accepted connection, before the
	// request touches the web tier's queue or workers. The rejected browser
	// thinks again; its response time is deliberately not recorded — the
	// gate's job is to keep excess arrivals off the latency books, and
	// Stats.Rejected carries the separate truth.
	if !m.gate.Admit(m.gateHeld) {
		m.gate.Observe(true)
		if m.recording {
			m.arrivals++
			m.rejected++
			m.classRej[c.class]++
		}
		c.retryPending = false
		c.retries = 0
		m.armThink(i, t+m.rng.ExpFloat64(tpcw.MeanThinkTimeSeconds))
		return
	}
	m.gate.Observe(false)
	m.gateHeld++
	if m.recording {
		m.arrivals++
	}

	c.retryPending = false
	c.mode = modeInFlight
	c.phase = phaseWebWait
	m.remaining[i] = c.webWork
	if c.started < m.oldest {
		m.oldest = c.started
	}
	m.think.remove(i)
	m.keepAlive.remove(i)
	m.inFlightSet.add(i)
	m.webQueue.push(i)
}

// admitWeb moves queued requests into web service, bounded by MaxClients and
// the spawned worker pool.
// webBusy returns the number of occupied request workers. Keep-alive
// connections are handled by the event loop (Apache event-MPM style), so only
// in-flight requests occupy workers; idle connections cost memory.
func (m *Model) webBusy() int { return m.inFlight }

func (m *Model) admitWeb() {
	for m.webQueue.len() > 0 && m.webBusy() < m.params.MaxClients && m.webSpawned > m.webBusy() {
		i := m.webQueue.pop()
		c := &m.clients[i]
		if c.mode != modeInFlight || c.phase != phaseWebWait {
			continue // stale entry: the request was abandoned
		}
		c.phase = phaseWeb
		m.inWeb.add(i)
		m.inFlight++
		m.webActive++
		if c.hasConn {
			m.idleConns-- // the connection goes active
		} else {
			c.hasConn = true
			m.conns++
		}
		// The connection stays fresh while the request is in flight.
		c.connExpires = math.Inf(1)
	}
}

// admitApp moves requests from the app queue onto Tomcat threads.
func (m *Model) admitApp() {
	for m.appQueue.len() > 0 && m.threads < m.params.MaxThreads && m.appSpawned > m.threads {
		i := m.appQueue.pop()
		c := &m.clients[i]
		if c.mode != modeInFlight || c.phase != phaseAppWait {
			continue // stale entry: the request was abandoned
		}
		c.phase = phaseApp
		m.inApp.add(i)
		m.remaining[i] = c.appWork
		m.threads++
		m.appActive++
	}
}

// admitDB moves requests from the DB queue onto database connections.
func (m *Model) admitDB() {
	for m.dbQueue.len() > 0 && m.dbConns < m.cal.DBMaxConns {
		i := m.dbQueue.pop()
		c := &m.clients[i]
		if c.mode != modeInFlight || c.phase != phaseDBWait {
			continue // stale entry: the request was abandoned
		}
		c.phase = phaseDBCPU
		m.inDBCPU.add(i)
		m.remaining[i] = c.dbCPUWork
		m.dbConns++
		m.dbCPU++
	}
}

// adjustPools applies Apache/Tomcat spare-pool rules.
func (m *Model) adjustPools(dt float64) {
	// Web workers.
	idle := m.webSpawned - m.webBusy()
	switch {
	case idle < m.params.MinSpareServers && m.webSpawned < m.params.MaxClients:
		m.webSpawnCr += m.cal.WorkerSpawnPerSec * dt
		n := int(m.webSpawnCr)
		if n > 0 {
			m.webSpawnCr -= float64(n)
			m.webSpawned = minInt(m.webSpawned+n, m.params.MaxClients)
		}
		m.webReapCr = 0
	case idle > m.params.MaxSpareServers:
		m.webReapCr += m.cal.WorkerReapPerSec * dt
		n := int(m.webReapCr)
		if n > 0 {
			m.webReapCr -= float64(n)
			m.webSpawned = maxInt(m.webSpawned-n, maxInt(m.webBusy(), 1))
		}
		m.webSpawnCr = 0
	default:
		m.webSpawnCr, m.webReapCr = 0, 0
	}

	// App threads.
	idleT := m.appSpawned - m.threads
	switch {
	case idleT < m.params.MinSpareThreads && m.appSpawned < m.params.MaxThreads:
		m.appSpawnCr += m.cal.ThreadSpawnPerSec * dt
		n := int(m.appSpawnCr)
		if n > 0 {
			m.appSpawnCr -= float64(n)
			m.appSpawned = minInt(m.appSpawned+n, m.params.MaxThreads)
		}
		m.appReapCr = 0
	case idleT > m.params.MaxSpareThreads:
		m.appReapCr += m.cal.ThreadReapPerSec * dt
		n := int(m.appReapCr)
		if n > 0 {
			m.appReapCr -= float64(n)
			m.appSpawned = maxInt(m.appSpawned-n, maxInt(m.threads, 1))
		}
		m.appSpawnCr = 0
	default:
		m.appSpawnCr, m.appReapCr = 0, 0
	}
}

// liveSessions counts server-side session objects: sessions of current
// clients that have not expired plus abandoned sessions still within their
// timeout.
func (m *Model) liveSessions() int {
	return m.deadSession.len() + m.sessions.len()
}

// appVMMemUsedMB returns the committed memory on the app/db VM outside the
// database buffer cache, given the number of live server-side sessions.
func (m *Model) appVMMemUsedMB(sessions int) float64 {
	return m.cal.AppBaseMemMB +
		m.cal.ThreadMemMB*float64(m.appSpawned) +
		m.cal.SessionMemMB*float64(sessions) +
		m.cal.DBConnMemMB*float64(m.dbConns)
}

// dbIOFactor returns the current cache-miss amplification: the leaner the
// remaining buffer cache, the more physical I/O each query performs.
func (m *Model) dbIOFactor(sessions int) float64 {
	cache := float64(m.appVM.Level().MemoryMB) - m.appVMMemUsedMB(sessions)
	if cache < m.cal.DBMinCacheMB {
		cache = m.cal.DBMinCacheMB
	}
	key := math.Float64bits(cache)
	s := key * 0x9e3779b97f4a7c15 >> (64 - ioMemoBits)
	e := &m.ioMemo
	if !e.ok[s] || e.key[s] != key {
		e.key[s], e.val[s], e.ok[s] = key, math.Pow(m.cal.DBRefCacheMB/cache, m.cal.DBIOExponent), true
	}
	return e.val[s]
}

// ioMemoBits sizes dbIOFactor's memo: 1<<ioMemoBits direct-mapped slots.
const ioMemoBits = 8

// ioMemo remembers dbIOFactor's math.Pow by the float bits of the clamped
// cache size, in a slot picked by a multiplicative hash of those bits. The
// model's Calibration never changes, so the factor is a pure function of the
// cache size and a hit returns the bits a fresh Pow would.
type ioMemo struct {
	key [1 << ioMemoBits]uint64
	val [1 << ioMemoBits]float64
	ok  [1 << ioMemoBits]bool
}

// webThrash returns the web-VM memory overcommit penalty multiplier.
func (m *Model) webThrash() float64 {
	used := m.cal.WebBaseMemMB +
		m.cal.WorkerMemMB*float64(m.webSpawned) +
		m.cal.ConnMemMB*float64(m.conns)
	over := used/m.cal.WebMemMB - 1
	if over <= 0 {
		return 1
	}
	thrash := 1 + m.cal.ThrashCoeff*math.Pow(over, m.cal.ThrashExponent)
	if m.cal.ThrashMax > 1 && thrash > m.cal.ThrashMax {
		thrash = m.cal.ThrashMax
	}
	return thrash
}

// efficiency returns the scheduling efficiency of a VM running n runnable
// jobs on the given core count.
func (m *Model) efficiency(active, vcpus int) float64 {
	excess := float64(active - vcpus)
	if excess <= 0 {
		return 1
	}
	return 1 / (1 + m.cal.CtxSwitchCoeff*excess + m.cal.CtxSwitchQuad*excess*excess)
}

// appVMUtilNow estimates instantaneous app/db VM CPU utilization.
func (m *Model) appVMUtilNow() float64 {
	active := m.appActive + m.dbCPU
	if active == 0 {
		return 0
	}
	cap2 := m.appVM.Level().CPUCapacity()
	used := math.Min(float64(active), cap2)
	return used / cap2
}

// process advances every in-service request by one tick of CPU or disk, one
// service phase at a time, each in ascending client index. That is the
// single ascending pass over all in-flight requests, regrouped: rates and
// ioFactor are fixed for the tick, a request changes only its own state, and
// each order-sensitive effect comes from one phase alone — completions (RNG
// draws, response-time samples) from DBIO, dbQueue pushes from App, appQueue
// pushes from Web — so each keeps its ascending order. DBIO goes before
// DBCPU so a request that enters DBIO this tick is not advanced twice.
func (m *Model) process(dt, t, ioFactor float64) {
	webRate, appRate, ioRate := m.serviceRates(t)
	done := t + dt
	m.sweep(m.inDBIO, phaseDBIO, ioRate*dt, done, ioFactor)
	m.sweep(m.inDBCPU, phaseDBCPU, appRate*dt, done, ioFactor)
	m.sweep(m.inApp, phaseApp, appRate*dt, done, ioFactor)
	m.sweep(m.inWeb, phaseWeb, webRate*dt, done, ioFactor)
}

// sweep gives every request in set, all in phase p, work d of service, and
// ends the phase of each that runs out of work.
func (m *Model) sweep(set clientSet, p phase, d, done, ioFactor float64) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			m.remaining[i] -= d
			if m.remaining[i] <= 0 {
				m.finishPhase(i, p, done, ioFactor)
			}
		}
	}
}

// serviceRates returns this tick's per-job processing rates, computed from
// tick-start occupancies, and runs the app/db VM's stall process. A job can
// use at most one core.
func (m *Model) serviceRates(t float64) (webRate, appRate, ioRate float64) {
	if m.webActive > 0 {
		// The web tier (event-driven static serving) degrades only linearly
		// with concurrency; the quadratic collapse term applies to the
		// app/db VM, whose resources the experiments vary.
		excess := float64(m.webActive - m.cal.WebVCPUs)
		eff := 1.0
		if excess > 0 {
			eff = 1 / (1 + m.cal.CtxSwitchCoeff*excess)
		}
		cap1 := float64(m.cal.WebVCPUs) * eff / m.webThrash()
		webRate = math.Min(1, cap1/float64(m.webActive))
	}
	vm2Active := m.appActive + m.dbCPU
	if vm2Active > 0 {
		level := m.appVM.Level()
		cap2 := level.CPUCapacity() * m.efficiency(vm2Active, level.VCPUs)
		appRate = math.Min(1, cap2/float64(vm2Active))
	}
	if m.dbIO > 0 {
		ioRate = math.Min(1, m.cal.DiskCapacity/float64(m.dbIO))
	}

	// GC / checkpoint stalls freeze the app/db VM. Durations scale with VM
	// weakness and are clipped at three times their mean so a single unlucky
	// draw cannot jam the whole measurement interval.
	if t < m.stallUntil {
		appRate, ioRate = 0, 0
	} else if t >= m.nextStall {
		level := m.appVM.Level()
		dur := m.cal.StallBaseDurSec * 4 / level.CPUCapacity()
		draw := math.Min(m.rng.ExpFloat64(dur), 3*dur)
		m.stallUntil = t + draw
		m.nextStall = m.stallUntil + m.rng.ExpFloat64(m.cal.StallMeanIntervalSec)
		appRate, ioRate = 0, 0
	}
	return webRate, appRate, ioRate
}

// finishPhase moves client i's request on from service phase p, whose work
// ran out in the tick ending at done.
func (m *Model) finishPhase(i int, p phase, done, ioFactor float64) {
	c := &m.clients[i]
	switch p {
	case phaseWeb:
		c.phase = phaseAppWait
		m.inWeb.del(i)
		m.webActive--
		m.appQueue.push(i)
	case phaseApp:
		c.phase = phaseDBWait
		m.inApp.del(i)
		m.appActive--
		m.dbQueue.push(i)
	case phaseDBCPU:
		c.phase = phaseDBIO
		m.inDBCPU.del(i)
		m.inDBIO.add(i)
		m.remaining[i] = c.dbIOWork * ioFactor
		m.dbCPU--
		m.dbIO++
	case phaseDBIO:
		m.completeRequest(i, done)
	}
}

// completeRequest finishes the request of client i at time t.
func (m *Model) completeRequest(i int, t float64) {
	c := &m.clients[i]
	if m.recording {
		m.rts = append(m.rts, t-c.started)
		m.recordClass(c.class, t-c.started)
	}
	m.gate.Complete(t - c.started)
	// Release resources.
	m.inDBIO.del(i)
	m.dbIO--
	m.dbConns--
	m.threads--
	m.inFlight--
	m.gateHeld--

	// Session bookkeeping: the interaction refreshes the session.
	timeout := m.params.SessionTimeoutMin * 60
	c.hasSession = true
	c.sessionExpires = t + timeout

	c.mode = modeThinking
	c.phase = phaseNone
	m.inFlightSet.del(i)

	if m.gen.SessionOver() {
		// The user leaves: the connection closes, the abandoned session
		// lingers server-side until its timeout, and the client re-enters as
		// a fresh user after a long pause.
		if c.hasConn {
			c.hasConn = false
			m.conns--
		}
		c.hasSession = false
		m.sessions.remove(i)
		m.deadSession.push(t + timeout)
		m.armThink(i, t+m.rng.ExpFloat64(m.cal.LongThinkMeanSec))
		return
	}
	m.sessions.set(i, c.sessionExpires)

	// Keep-alive: the connection stays open (holding its worker) for the
	// timeout.
	m.idleConns++
	c.connExpires = t + m.params.KeepAliveTimeoutSec
	m.keepAlive.set(i, c.connExpires)
	think := m.gen.ThinkTime()
	if m.rng.Bool(m.cal.LongThinkProb) {
		think = m.rng.ExpFloat64(m.cal.LongThinkMeanSec)
	}
	m.armThink(i, t+think)
}

// abandonRequest gives up on client i's in-flight request at time t: all
// held resources are released, the response time is recorded at the timeout,
// and the frustrated user closes the connection and thinks again.
func (m *Model) abandonRequest(i int, t float64) {
	c := &m.clients[i]
	switch c.phase {
	case phaseWebWait:
		// Not yet admitted: only the (lazily skipped) queue entry is held.
	case phaseWeb:
		m.inWeb.del(i)
		m.webActive--
		m.inFlight--
	case phaseAppWait:
		m.inFlight--
	case phaseApp:
		m.inApp.del(i)
		m.appActive--
		m.threads--
		m.inFlight--
	case phaseDBWait:
		m.threads--
		m.inFlight--
	case phaseDBCPU:
		m.inDBCPU.del(i)
		m.dbCPU--
		m.dbConns--
		m.threads--
		m.inFlight--
	case phaseDBIO:
		m.inDBIO.del(i)
		m.dbIO--
		m.dbConns--
		m.threads--
		m.inFlight--
	}
	// Every in-flight request, queued or in service, passed the gate; one it
	// gave up on counts as late.
	m.gateHeld--
	m.gate.Complete(math.Inf(1))
	if c.hasConn {
		// The connection is torn down; a queued request's connection still
		// counts as idle-held.
		if c.phase == phaseWebWait {
			m.idleConns--
		}
		m.conns--
		c.hasConn = false
	}
	if m.recording {
		m.rts = append(m.rts, t-c.started)
		m.recordClass(c.class, t-c.started)
		m.timeouts++
	}
	c.mode = modeThinking
	c.phase = phaseNone
	c.retryPending = false
	c.retries = 0
	m.inFlightSet.del(i)
	m.armThink(i, t+m.rng.ExpFloat64(tpcw.MeanThinkTimeSeconds))
}

// recordClass folds a response time into its class accumulator.
func (m *Model) recordClass(class tpcw.Class, rt float64) {
	m.classRT[class].Add(rt)
}

// AdmissionState reports the gate's epoch-adaptive state: the current cap
// scale, the stance of the latest epoch decision, and how many epoch
// decisions have been made.
func (m *Model) AdmissionState() (scale float64, regime admission.Regime, epochs int) {
	return m.gate.Scale(), m.gate.Regime(), m.gate.Epochs()
}

// CheckInvariants recounts occupancy from client states and compares with the
// incremental counters and the client indexes, returning an error on any
// mismatch. Tests call this to guard the bookkeeping.
func (m *Model) CheckInvariants() error {
	var inFlight, webActive, appActive, dbCPU, dbIO, threads, dbConns, conns, idleConns, gateHeld int
	for i := range m.clients {
		c := &m.clients[i]
		if err := m.checkIndexed(i); err != nil {
			return err
		}
		if c.hasConn {
			conns++
			if c.mode == modeThinking || c.phase == phaseWebWait {
				idleConns++
			}
		}
		if c.mode != modeInFlight {
			continue
		}
		gateHeld++
		inFlight0 := c.phase != phaseWebWait
		if inFlight0 {
			inFlight++
		}
		switch c.phase {
		case phaseWeb:
			webActive++
		case phaseApp:
			appActive++
			threads++
		case phaseDBWait:
			threads++
		case phaseDBCPU:
			dbCPU++
			threads++
			dbConns++
		case phaseDBIO:
			dbIO++
			threads++
			dbConns++
		}
	}
	// Requests queued between web and app still hold their worker.
	type pair struct {
		name string
		got  int
		want int
	}
	checks := []pair{
		{"inFlight", m.inFlight, inFlight},
		{"webActive", m.webActive, webActive},
		{"appActive", m.appActive, appActive},
		{"dbCPU", m.dbCPU, dbCPU},
		{"dbIO", m.dbIO, dbIO},
		{"threads", m.threads, threads},
		{"dbConns", m.dbConns, dbConns},
		{"conns", m.conns, conns},
		{"idleConns", m.idleConns, idleConns},
		{"gateHeld", m.gateHeld, gateHeld},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("webtier: counter %s=%d, recount %d", c.name, c.got, c.want)
		}
	}
	// Pools may transiently exceed a freshly lowered cap (reaping is one
	// worker per second), but never fall below one worker or below the busy
	// count.
	if m.webSpawned < 1 || m.webSpawned < m.inFlight && m.inFlight <= m.params.MaxClients {
		return fmt.Errorf("webtier: webSpawned %d below busy %d", m.webSpawned, m.inFlight)
	}
	if m.appSpawned < 1 {
		return fmt.Errorf("webtier: appSpawned %d < 1", m.appSpawned)
	}
	if m.dbConns > m.cal.DBMaxConns {
		return fmt.Errorf("webtier: dbConns %d > cap %d", m.dbConns, m.cal.DBMaxConns)
	}
	for _, c := range []struct {
		name string
		cal  *calendar
	}{{"think", &m.think}, {"keepAlive", &m.keepAlive}, {"sessions", &m.sessions}} {
		if err := c.cal.check(); err != nil {
			return fmt.Errorf("webtier: %s timers: %w", c.name, err)
		}
	}
	return nil
}

// checkIndexed verifies that client i is in exactly the indexes its state
// calls for, armed at the deadlines its state holds, and that the timeout
// pass's oldest bound covers its request.
func (m *Model) checkIndexed(i int) error {
	c := &m.clients[i]
	thinking, inFlight := c.mode == modeThinking, c.mode == modeInFlight
	if m.inFlightSet.has(i) != inFlight {
		return fmt.Errorf("webtier: client %d mode %d, in-flight set says %v", i, c.mode, m.inFlightSet.has(i))
	}
	for _, s := range [...]struct {
		p   phase
		set clientSet
	}{{phaseWeb, m.inWeb}, {phaseApp, m.inApp}, {phaseDBCPU, m.inDBCPU}, {phaseDBIO, m.inDBIO}} {
		if want := inFlight && c.phase == s.p; s.set.has(i) != want {
			return fmt.Errorf("webtier: client %d in phase %d, phase-%d set says %v", i, c.phase, s.p, !want)
		}
	}
	if inFlight && c.started < m.oldest {
		return fmt.Errorf("webtier: client %d started at %v, before the oldest bound %v", i, c.started, m.oldest)
	}
	if err := m.think.checkClient(i, thinking, c.thinkUntil); err != nil {
		return fmt.Errorf("webtier: think timers: %w", err)
	}
	if err := m.keepAlive.checkClient(i, thinking && c.hasConn, c.connExpires); err != nil {
		return fmt.Errorf("webtier: keepAlive timers: %w", err)
	}
	if err := m.sessions.checkClient(i, c.hasSession && c.sessionExpires > m.now, c.sessionExpires); err != nil {
		return fmt.Errorf("webtier: sessions timers: %w", err)
	}
	return nil
}

// queue is an index FIFO with amortized O(1) operations.
type queue struct {
	items []int
	head  int
}

func (q *queue) push(i int) { q.items = append(q.items, i) }

func (q *queue) pop() int {
	v := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return v
}

func (q *queue) len() int { return len(q.items) - q.head }

func (q *queue) reset() {
	q.items = q.items[:0]
	q.head = 0
}

// fifoExpiry tracks expiry timestamps pushed in nondecreasing order.
type fifoExpiry struct {
	q queue64
}

func (f *fifoExpiry) push(expiry float64) { f.q.push(expiry) }

func (f *fifoExpiry) prune(now float64) {
	for f.q.len() > 0 && f.q.peek() <= now {
		f.q.pop()
	}
}

func (f *fifoExpiry) len() int { return f.q.len() }

func (f *fifoExpiry) reset() { f.q.reset() }

// queue64 is a float64 FIFO mirroring queue.
type queue64 struct {
	items []float64
	head  int
}

func (q *queue64) push(v float64) { q.items = append(q.items, v) }

func (q *queue64) peek() float64 { return q.items[q.head] }

func (q *queue64) pop() float64 {
	v := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return v
}

func (q *queue64) len() int { return len(q.items) - q.head }

func (q *queue64) reset() {
	q.items = q.items[:0]
	q.head = 0
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
