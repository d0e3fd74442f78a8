// Package httpd implements a real, runnable three-tier web application over
// net/http with the same eight knobs as the paper's testbed: a web front
// with an in-flight request cap (MaxClients) and keep-alive control, an
// application layer with a bounded thread pool (MaxThreads) and TTL'd
// sessions (SessionTimeout), and an in-memory bookstore database with
// artificial service times that scale with a VM level.
//
// It exists so the RAC agent can be demonstrated against live HTTP traffic —
// the agent only sees response times from the load generator and
// configuration knobs through Reconfigure, exactly matching the paper's
// non-intrusive design. The time scale is compressed: service demands are in
// the hundreds of microseconds so examples converge in seconds.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rac-project/rac/internal/admission"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// TimeScale compresses the paper's service demands: live demands are the
// TPC-W class demands divided by this factor, so a 20 ms database query
// becomes 200 µs and whole tuning sessions run in seconds.
const TimeScale = 100.0

// Server is the live three-tier stack.
type Server struct {
	mu     sync.Mutex
	params webtier.Params
	level  vmenv.Level

	webSlots   *semaphore
	appThreads *semaphore
	sessions   *sessionStore
	db         *bookstore

	// gate is the SLO admission controller: the fast-reject path answers 503
	// before the request touches the web tier's semaphore wait. Always
	// constructed; with zero caps it admits everything.
	gate *admission.Gate

	httpSrv  *http.Server
	listener net.Listener
	done     chan struct{}

	// Idle keep-alive connections are reaped by per-connection timers so the
	// timeout can change at runtime (http.Server.IdleTimeout cannot be
	// mutated while serving).
	idleMu     sync.Mutex
	idleTimers map[net.Conn]*time.Timer

	// Counters (atomic; exposed via /admin/stats).
	served   atomic.Int64
	rejected atomic.Int64

	// Telemetry: per-class latency histograms and request counters on the
	// request hot path, exposed in Prometheus text form at /metrics.
	tel         *telemetry.Registry
	reqLatency  map[tpcw.Class]*telemetry.Histogram
	reqServed   map[tpcw.Class]*telemetry.Counter
	rejWeb      *telemetry.Counter
	rejApp      *telemetry.Counter
	sessGauge   *telemetry.Gauge
	admAdmitted *telemetry.Counter
	admRejected *telemetry.Counter
	admScale    *telemetry.Gauge
	admRegime   *telemetry.Gauge

	// trace, when set, is served as JSON at /admin/trace (the agent's
	// decision ring; attached by the experiment driver, not the server).
	traceMu sync.Mutex
	trace   *telemetry.Trace

	// extra routes mounted by the embedding process (e.g. the fleet admin
	// API at /admin/fleet), registered before Start.
	extraMu sync.Mutex
	extra   map[string]http.Handler
}

// NewServer builds the stack with the given initial configuration and level.
func NewServer(params webtier.Params, level vmenv.Level) (*Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if !level.Valid() {
		return nil, fmt.Errorf("httpd: invalid level %+v", level)
	}
	s := &Server{
		params:     params,
		level:      level,
		webSlots:   newSemaphore(params.MaxClients),
		appThreads: newSemaphore(params.MaxThreads),
		sessions:   newSessionStore(time.Duration(params.SessionTimeoutMin * float64(time.Minute) / TimeScale)),
		db:         newBookstore(level),
		done:       make(chan struct{}),
		tel:        telemetry.NewRegistry(),
		reqLatency: make(map[tpcw.Class]*telemetry.Histogram, len(tpcw.Classes())),
		reqServed:  make(map[tpcw.Class]*telemetry.Counter, len(tpcw.Classes())),
	}
	for _, class := range tpcw.Classes() {
		labels := telemetry.Labels{"class": class.String()}
		s.reqLatency[class] = s.tel.Histogram("httpd_request_seconds",
			"Request latency by TPC-W page class, in paper-scale seconds.", nil, labels)
		s.reqServed[class] = s.tel.Counter("httpd_requests_total",
			"Requests served by TPC-W page class.", labels)
	}
	s.rejWeb = s.tel.Counter("httpd_rejected_total",
		"Requests rejected by tier admission control.", telemetry.Labels{"tier": "web"})
	s.rejApp = s.tel.Counter("httpd_rejected_total",
		"Requests rejected by tier admission control.", telemetry.Labels{"tier": "app"})
	s.sessGauge = s.tel.Gauge("httpd_sessions",
		"Live sessions in the TTL'd session store.", nil)
	s.admAdmitted = s.tel.Counter("rac_admission_admitted_total",
		"Arrivals admitted past the SLO gate.", nil)
	s.admRejected = s.tel.Counter("rac_admission_rejected_total",
		"Arrivals fast-rejected (503) by the SLO gate.", nil)
	s.admScale = s.tel.Gauge("rac_admission_scale",
		"Epoch-adaptive cap scale of the SLO gate.", nil)
	s.admRegime = s.tel.Gauge("rac_admission_regime",
		"Epoch regime of the SLO gate (0=hold, 1=exploit, 2=spread).", nil)
	s.admScale.Set(1)
	gate, err := admission.NewGate(admission.Params{
		MaxConcurrent: params.AdmitConcurrency,
		MaxQueue:      params.AdmitQueue,
	}, admission.DefaultEpoch())
	if err != nil {
		return nil, err
	}
	gate.OnDecision(s.onAdmissionDecision)
	s.gate = gate
	return s, nil
}

// onAdmissionDecision publishes each epoch decision of the gate's adaptive
// loop: gauges for the scrape path, a trace event for the decision ring.
func (s *Server) onAdmissionDecision(d admission.Decision) {
	s.admScale.Set(d.Scale)
	s.admRegime.Set(float64(d.Regime))
	s.traceMu.Lock()
	tr := s.trace
	s.traceMu.Unlock()
	if tr != nil {
		tr.Add(telemetry.Event{
			Kind:       telemetry.KindAdmission,
			Iteration:  d.Epoch,
			RejectRate: d.RejectRate,
			LateShare:  d.LateShare,
			SlowShare:  d.SlowShare,
			Detail:     d.Regime.String(),
		})
	}
}

// Telemetry returns the server's metrics registry so other layers (agent,
// load driver, live adapter) can register their instruments on the same
// /metrics page.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// SetTrace attaches the decision-trace ring served at /admin/trace.
func (s *Server) SetTrace(t *telemetry.Trace) {
	s.traceMu.Lock()
	s.trace = t
	s.traceMu.Unlock()
}

// Mount registers an extra handler on the server's mux under the given
// pattern — how the fleet admin API lands next to /metrics and /admin/trace.
// Call before Start (or Handler); later calls only affect subsequently built
// handlers.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.extraMu.Lock()
	if s.extra == nil {
		s.extra = make(map[string]http.Handler)
	}
	s.extra[pattern] = h
	s.extraMu.Unlock()
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("httpd: listen: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.idleTimers = make(map[net.Conn]*time.Timer)
	s.httpSrv = &http.Server{
		Handler: s.Handler(),
		// A generous fixed ceiling; the configured keep-alive timeout is
		// enforced dynamically by per-connection reaper timers.
		IdleTimeout: time.Duration(30 * float64(time.Second) / TimeScale),
		ReadTimeout: 10 * time.Second,
		ConnState:   s.trackConn,
	}
	srv := s.httpSrv
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal shutdown signal.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The error cannot be returned; it surfaces through failed
			// requests at the load generator.
			_ = err
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops the server gracefully: the listener closes immediately (no
// new connections), in-flight requests drain, and the wait is bounded by ctx —
// when the deadline expires before the drain completes, remaining connections
// are cut with Close so Shutdown always returns by the deadline instead of
// hanging on a stuck request.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// Bounded drain: the deadline passed with connections still open.
		_ = srv.Close()
	}
	<-s.done
	// Stop any leftover reaper timers.
	s.idleMu.Lock()
	for c, t := range s.idleTimers {
		t.Stop()
		delete(s.idleTimers, c)
	}
	s.idleMu.Unlock()
	return err
}

func (s *Server) keepAlive() time.Duration {
	return time.Duration(s.params.KeepAliveTimeoutSec * float64(time.Second) / TimeScale)
}

// Params returns the current configuration.
func (s *Server) Params() webtier.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.params
}

// Level returns the simulated VM level of the app/db tier.
func (s *Server) Level() vmenv.Level {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.level
}

// Reconfigure applies a new configuration at runtime: semaphores resize
// live, the session TTL changes for subsequent touches.
func (s *Server) Reconfigure(params webtier.Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.params = params
	s.webSlots.resize(params.MaxClients)
	s.appThreads.resize(params.MaxThreads)
	s.sessions.setTTL(time.Duration(params.SessionTimeoutMin * float64(time.Minute) / TimeScale))
	// The keep-alive change applies to connections that go idle from now on
	// via the per-connection reaper timers.
	return s.gate.SetParams(admission.Params{
		MaxConcurrent: params.AdmitConcurrency,
		MaxQueue:      params.AdmitQueue,
	})
}

// trackConn reaps connections that stay idle beyond the configured
// keep-alive timeout.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	switch state {
	case http.StateIdle:
		ttl := s.keepAliveLocked()
		s.idleMu.Lock()
		if old, ok := s.idleTimers[c]; ok {
			old.Stop()
		}
		s.idleTimers[c] = time.AfterFunc(ttl, func() { c.Close() })
		s.idleMu.Unlock()
	case http.StateActive, http.StateHijacked, http.StateClosed:
		s.idleMu.Lock()
		if t, ok := s.idleTimers[c]; ok {
			t.Stop()
			delete(s.idleTimers, c)
		}
		s.idleMu.Unlock()
	}
}

// keepAliveLocked reads the configured keep-alive timeout under the lock.
func (s *Server) keepAliveLocked() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keepAlive()
}

// SetLevel reallocates the simulated VM hosting the app and db tiers.
func (s *Server) SetLevel(level vmenv.Level) error {
	if !level.Valid() {
		return fmt.Errorf("httpd: invalid level %+v", level)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.level = level
	s.db.setLevel(level)
	return nil
}

// Stats is the server-side counter snapshot. Rejected aggregates every 503
// (gate, web tier, app tier); GateRejected isolates the SLO gate's share, and
// GateScale/GateRegime expose the epoch-adaptive loop's current stance.
type Stats struct {
	Served       int64   `json:"served"`
	Rejected     int64   `json:"rejected"`
	Sessions     int     `json:"sessions"`
	GateAdmitted int64   `json:"gate_admitted,omitempty"`
	GateRejected int64   `json:"gate_rejected,omitempty"`
	GateScale    float64 `json:"gate_scale,omitempty"`
	GateRegime   string  `json:"gate_regime,omitempty"`
}

// Stats returns the counter snapshot.
func (s *Server) Stats() Stats {
	snap := s.gate.Snapshot()
	st := Stats{
		Served:       s.served.Load(),
		Rejected:     s.rejected.Load(),
		Sessions:     s.sessions.len(),
		GateAdmitted: snap.Admitted,
		GateRejected: snap.Rejected,
	}
	if s.gate.Enabled() {
		st.GateScale = snap.Scale
		st.GateRegime = snap.Regime.String()
	}
	return st
}

// Handler returns the HTTP routes (also usable under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/home", s.page(tpcw.ClassHome))
	mux.HandleFunc("/detail", s.page(tpcw.ClassProductDetail))
	mux.HandleFunc("/search", s.page(tpcw.ClassSearch))
	mux.HandleFunc("/cart", s.page(tpcw.ClassShoppingCart))
	mux.HandleFunc("/buy", s.page(tpcw.ClassBuyConfirm))
	mux.HandleFunc("/admin-task", s.page(tpcw.ClassAdmin))
	mux.HandleFunc("/admin/config", s.handleConfig)
	mux.HandleFunc("/admin/stats", s.handleStats)
	mux.HandleFunc("/admin/level", s.handleLevel)
	mux.HandleFunc("/admin/trace", s.handleTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.extraMu.Lock()
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	s.extraMu.Unlock()
	return mux
}

// page builds the three-tier request path for one interaction class.
func (s *Server) page(class tpcw.Class) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		// SLO admission gate: one mutex acquisition decides the arrival, so a
		// rejection costs microseconds — before the web tier's semaphore wait
		// can queue the request for up to its full 2 s timeout.
		release, ok := s.gate.Enter(class)
		if !ok {
			s.rejected.Add(1)
			s.admRejected.Inc()
			http.Error(w, "admission gate", http.StatusServiceUnavailable)
			return
		}
		// The gate judges its epochs by the latency of the work it admitted;
		// an admitted request that ends in a 503 below counts as late.
		rt := math.Inf(1)
		defer func() {
			s.gate.Complete(rt)
			release()
		}()
		s.admAdmitted.Inc()

		// Web tier admission: MaxClients.
		if !s.webSlots.tryAcquire(2 * time.Second) {
			s.rejected.Add(1)
			s.rejWeb.Inc()
			http.Error(w, "server busy", http.StatusServiceUnavailable)
			return
		}
		defer s.webSlots.release()

		demand := tpcw.ClassDemand(class)
		spin(scaled(demand.Web))

		// Session handling (app tier entry).
		sid, fresh := s.sessionFor(w, r)
		if fresh {
			spin(scaled(webtier.DefaultCalibration().SessionCreateCostSec))
		}

		// App tier: bounded thread pool.
		if !s.appThreads.tryAcquire(2 * time.Second) {
			s.rejected.Add(1)
			s.rejApp.Inc()
			http.Error(w, "app pool exhausted", http.StatusServiceUnavailable)
			return
		}
		result := func() string {
			defer s.appThreads.release()
			spin(scaled(demand.App))
			// Database tier.
			return s.db.query(class, r.URL.Query().Get("q"))
		}()

		s.served.Add(1)
		s.reqServed[class].Inc()
		// Latency in paper-scale seconds, directly comparable with the
		// simulator's response times and the agent's SLA.
		rt = time.Since(start).Seconds() * TimeScale
		s.reqLatency[class].Observe(rt)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "class=%s session=%s result=%s\n", class, sid, result)
	}
}

// sessionFor resolves or creates the request's session.
func (s *Server) sessionFor(w http.ResponseWriter, r *http.Request) (string, bool) {
	if c, err := r.Cookie("RACSESSION"); err == nil {
		if s.sessions.touch(c.Value) {
			return c.Value, false
		}
	}
	sid := s.sessions.create()
	http.SetCookie(w, &http.Cookie{Name: "RACSESSION", Value: sid, Path: "/"})
	return sid, true
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		params := s.params
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(params); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case http.MethodPost, http.MethodPut:
		var params webtier.Params
		dec := json.NewDecoder(r.Body)
		if err := dec.Decode(&params); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := dec.Token(); err != io.EOF {
			http.Error(w, "data after the document", http.StatusBadRequest)
			return
		}
		if err := s.Reconfigure(params); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics serves the Prometheus text exposition of every instrument
// registered on the server's telemetry registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Gauges with no natural write path are sampled at scrape time.
	s.sessGauge.Set(float64(s.sessions.len()))
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	if err := s.tel.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleTrace serves the attached decision-trace ring as a JSON array
// (empty when no trace is attached), oldest event first.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.traceMu.Lock()
	tr := s.trace
	s.traceMu.Unlock()
	events := []telemetry.Event{}
	if tr != nil {
		events = tr.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(events); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleLevel(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		fmt.Fprintln(w, s.Level().Name)
	case http.MethodPost, http.MethodPut:
		name := r.URL.Query().Get("name")
		level, err := vmenv.ByName(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.SetLevel(level); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// scaled converts a paper-scale demand (seconds) to the compressed live
// duration.
func scaled(seconds float64) time.Duration {
	return time.Duration(seconds / TimeScale * float64(time.Second))
}

// spin simulates CPU work for the given duration. Sleeping (rather than
// burning cycles) keeps tests cheap while preserving latency structure.
func spin(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// semaphore is a resizable counting semaphore.
type semaphore struct {
	mu    sync.Mutex
	cond  *sync.Cond
	cap   int
	inUse int
}

func newSemaphore(capacity int) *semaphore {
	s := &semaphore{cap: capacity}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// tryAcquire waits up to timeout for a slot.
func (s *semaphore) tryAcquire(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.inUse >= s.cap {
		if time.Now().After(deadline) {
			return false
		}
		// Wake periodically to honor the deadline without a dedicated timer
		// goroutine per waiter.
		waker := time.AfterFunc(10*time.Millisecond, s.cond.Broadcast)
		s.cond.Wait()
		waker.Stop()
	}
	s.inUse++
	return true
}

func (s *semaphore) release() {
	s.mu.Lock()
	s.inUse--
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *semaphore) resize(capacity int) {
	s.mu.Lock()
	s.cap = capacity
	s.mu.Unlock()
	s.cond.Broadcast()
}

// sessionStore is a TTL'd session table. An expired session is dropped when
// it is next touched, or by a sweep over the whole table. create sweeps only
// once the table has doubled since the last sweep, so a client that never
// returns its cookie costs amortised O(1) per session and the table stays
// within twice the sessions alive at that sweep.
type sessionStore struct {
	mu    sync.Mutex
	ttl   time.Duration
	next  int64
	data  map[string]time.Time // session id → expiry
	swept int                  // len(data) after the last sweep
	now   func() time.Time
}

func newSessionStore(ttl time.Duration) *sessionStore {
	if ttl <= 0 {
		ttl = time.Second
	}
	return &sessionStore{ttl: ttl, data: make(map[string]time.Time), now: time.Now}
}

func (st *sessionStore) setTTL(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	st.mu.Lock()
	st.ttl = ttl
	st.mu.Unlock()
}

func (st *sessionStore) create() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := "s" + strconv.FormatInt(st.next, 36)
	now := st.now()
	st.data[id] = now.Add(st.ttl)
	if len(st.data) >= 2*st.swept {
		st.sweepLocked(now)
	}
	return id
}

// touch refreshes the session and reports whether it was alive.
func (st *sessionStore) touch(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	expiry, ok := st.data[id]
	now := st.now()
	if !ok || now.After(expiry) {
		delete(st.data, id)
		return false
	}
	st.data[id] = now.Add(st.ttl)
	return true
}

// len returns the number of live sessions; it sweeps, so it is for the
// stats and scrape paths, not per request.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(st.now())
	return len(st.data)
}

// sweepLocked drops expired sessions; called with the lock held.
func (st *sessionStore) sweepLocked(now time.Time) {
	for id, expiry := range st.data {
		if now.After(expiry) {
			delete(st.data, id)
		}
	}
	st.swept = len(st.data)
}
