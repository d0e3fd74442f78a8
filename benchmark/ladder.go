package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/loadgen"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/stats"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

const (
	// sloMS is the latency limit on the live stack in wall milliseconds: the
	// paper's 2 s SLA under the server's 100× time compression.
	sloMS = slaSeconds * 1e3 / httpd.TimeScale
	// requestTimeout bounds one request from issue.
	requestTimeout = 2 * time.Second
	// gateOpen and gateTight are the admission gate's concurrency cap on the
	// low rungs (never binding) and on the overload rung. At 6 the overload
	// rung is refused a quarter of its requests from the first epoch on, so the
	// controller tightens at once; at 8 the refusals start inside its hold band
	// (2–10 %) and it tightens after anything between one second and seven.
	gateOpen  = 64
	gateTight = 6
	// visitors is the size of the returning-visitor pool: each keeps the
	// session cookie the server gave it, the way the program's own emulated
	// browsers do. At r2000 that is one request per visitor every 13 paper
	// seconds — TPC-W think times. newVisitorShare of the arrivals come without
	// a cookie and make the server create a session.
	visitors        = 256
	newVisitorShare = 0.02
)

var rungNames = [3]string{"r1000", "r2000", "overload"}

// arrival is one request of the open-loop schedule: when it is due, counted
// from the start of its rung, which page it asks for, and which visitor of
// the pool sends it (-1: a new visitor, who has no session yet).
type arrival struct {
	due     time.Duration
	class   tpcw.Class
	visitor int
}

// buildArrivals lays out a Poisson arrival process of the given rate over the
// given duration, with classes drawn from the shopping mix and visitors
// drawn uniformly from the pool. It is a pure function of the RNG's seed: the
// program under test never sees the seed, only the requests.
func buildArrivals(rng *sim.RNG, rate float64, d time.Duration) []arrival {
	probs := tpcw.ClassProbs(tpcw.Shopping)
	classes := tpcw.Classes()
	var out []arrival
	for t := rng.ExpFloat64(1 / rate); t < d.Seconds(); t += rng.ExpFloat64(1 / rate) {
		a := arrival{due: time.Duration(t * float64(time.Second)), class: classes[rng.Pick(probs)], visitor: rng.Intn(visitors)}
		if rng.Bool(newVisitorShare) {
			a.visitor = -1
		}
		out = append(out, a)
	}
	return out
}

// classPath maps an interaction class to the server's route for it.
func classPath(c tpcw.Class) string {
	switch c {
	case tpcw.ClassHome:
		return "/home"
	case tpcw.ClassProductDetail:
		return "/detail?q=widget"
	case tpcw.ClassSearch:
		return "/search?q=systems"
	case tpcw.ClassShoppingCart:
		return "/cart"
	case tpcw.ClassBuyConfirm:
		return "/buy"
	}
	return "/admin-task"
}

type outcome int8

const (
	outOK outcome = iota
	outRejected
	outTimeout
	outError
)

// sample is what the client saw of one request.
type sample struct {
	out    outcome
	due    time.Duration // from the start of the rung
	lateMS float64       // issue time − due time
	rtMS   float64       // completion − due time: what a user waiting since the due time saw
	svcMS  float64       // completion − issue time
}

// liveStack is a started server plus the benchmark's own client.
type liveStack struct {
	e         *env
	srv       *httpd.Server
	base      string
	transport *http.Transport
	client    *http.Client
	// cookies holds each pool visitor's session cookie once the server has
	// set it. Two requests of one visitor may be in flight at once.
	cookies [visitors]atomic.Pointer[string]
}

// liveSetup starts the three-tier server on a loopback port with the gate
// open, builds the keep-alive client and warms both up with a closed-loop
// burst that opens every connection.
func liveSetup(e *env) (*liveStack, error) {
	params := webtier.DefaultParams()
	params.AdmitConcurrency = gateOpen
	srv, err := httpd.NewServer(params, vmenv.Level1)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := e.sz.connections
	tp := &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n, IdleConnTimeout: time.Minute}
	l := &liveStack{e: e, srv: srv, base: "http://" + addr, transport: tp,
		client: &http.Client{Transport: tp, Timeout: requestTimeout}}
	warm := make([]arrival, e.sz.warmRequests)
	for i := range warm {
		warm[i].class, warm[i].visitor = tpcw.Classes()[i%len(tpcw.Classes())], i%visitors
	}
	for _, s := range l.issue(0, "warm", warm) {
		if s.out != outOK {
			l.close()
			return nil, fmt.Errorf("live-ladder: warm-up request failed")
		}
	}
	return l, nil
}

func (l *liveStack) close() {
	l.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = l.srv.Shutdown(ctx) // a drain cut short by the deadline still stops the server
}

// issue sends the arrivals open-loop: each of the client's connections takes
// the next arrival in due order, waits until it is due, and sends it. When
// every connection is busy the next arrival waits — and is timed from when it
// was due, not from when it left.
func (l *liveStack) issue(parent int64, rung string, arr []arrival) []sample {
	out := make([]sample, len(arr))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < l.e.sz.connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arr) {
					return
				}
				due := start.Add(arr[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sp := l.e.tr.start(parent, "httpd.request", rung)
				issued := time.Now()
				o := l.get(arr[i])
				done := time.Now()
				sp.end()
				out[i] = sample{out: o, due: arr[i].due,
					lateMS: float64(issued.Sub(due)) / 1e6,
					rtMS:   float64(done.Sub(due)) / 1e6,
					svcMS:  float64(done.Sub(issued)) / 1e6}
			}
		}()
	}
	wg.Wait()
	return out
}

// sessionCookie is the name the server gives its session cookie.
const sessionCookie = "RACSESSION"

func (l *liveStack) get(a arrival) outcome {
	req, err := http.NewRequest(http.MethodGet, l.base+classPath(a.class), nil)
	if err != nil {
		return outError
	}
	if a.visitor >= 0 {
		if sid := l.cookies[a.visitor].Load(); sid != nil {
			req.AddCookie(&http.Cookie{Name: sessionCookie, Value: *sid})
		}
	}
	resp, err := l.client.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() || os.IsTimeout(err) {
			return outTimeout
		}
		return outError
	}
	if a.visitor >= 0 {
		for _, c := range resp.Cookies() {
			if c.Name == sessionCookie {
				l.cookies[a.visitor].Store(&c.Value)
			}
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return outError
	case resp.StatusCode == http.StatusOK:
		return outOK
	case resp.StatusCode == http.StatusServiceUnavailable:
		return outRejected
	}
	return outError
}

// rung is the outcome of one rate step.
type rung struct {
	name                     string
	seconds                  float64
	offered                  int
	ok, rej, timeouts, errs  int
	good                     int       // answered 200 within the latency limit, from the due time
	rtMS, lateMS, svcMS      []float64 // of the requests answered 200 (late: of all)
	served, rejected         int64     // server-side deltas over the rung
	gateAdmitted, gateReject int64
	replayed                 int64 // requests the server answered twice (see runRung)
	windows                  []window
}

// window is one slice of a rung, about a second long. The rung's end-to-end
// numbers are medians over its windows: a stall of the machine (they last a
// few hundred milliseconds on a shared box) spoils one window, not the rung.
type window struct {
	seconds       float64
	offered, good int
	rtMS          []float64 // of the requests answered 200
}

// perWindow is f of each of the rung's windows.
func (g *rung) perWindow(f func(window) float64) []float64 {
	vals := make([]float64, len(g.windows))
	for i, w := range g.windows {
		vals[i] = f(w)
	}
	return vals
}

func (l *liveStack) runRung(parent int64, name string, arr []arrival, d time.Duration) (*rung, error) {
	before := l.srv.Stats()
	sp := l.e.tr.start(parent, "rung", name)
	samples := l.issue(sp.id, name, arr)
	sp.end()
	after := l.srv.Stats()
	g := &rung{name: name, seconds: d.Seconds(), offered: len(arr),
		served: after.Served - before.Served, rejected: after.Rejected - before.Rejected,
		gateAdmitted: after.GateAdmitted - before.GateAdmitted, gateReject: after.GateRejected - before.GateRejected}
	// Whole windows of at least a second each; a rung shorter than that is one.
	g.windows = make([]window, max(1, int(d.Seconds())))
	per := d / time.Duration(len(g.windows))
	for i := range g.windows {
		g.windows[i].seconds = per.Seconds()
	}
	for _, s := range samples {
		w := &g.windows[min(int(s.due/per), len(g.windows)-1)]
		w.offered++
		g.lateMS = append(g.lateMS, s.lateMS)
		switch s.out {
		case outOK:
			g.ok++
			g.rtMS = append(g.rtMS, s.rtMS)
			g.svcMS = append(g.svcMS, s.svcMS)
			w.rtMS = append(w.rtMS, s.rtMS)
			if s.rtMS <= sloMS {
				g.good++
				w.good++
			}
		case outRejected:
			g.rej++
		case outTimeout:
			g.timeouts++
		default:
			g.errs++
		}
	}
	// The accounting identity, client side and against the server's own
	// counters: nothing offered is unaccounted for.
	if g.ok+g.rej+g.timeouts+g.errs != g.offered {
		return nil, fmt.Errorf("live-ladder: %s: offered %d ≠ ok %d + 503 %d + timeouts %d + errors %d",
			name, g.offered, g.ok, g.rej, g.timeouts, g.errs)
	}
	// The server may count a few more than the client: when its keep-alive
	// reaper closes a connection just as a request arrives on it, the handler
	// runs, the reply is lost, and net/http replays the GET on a fresh
	// connection. The client sees one answer, the server counted two.
	g.replayed = g.served + g.rejected - int64(g.ok+g.rej)
	if g.timeouts+g.errs == 0 && (g.served < int64(g.ok) || g.rejected < int64(g.rej) || g.replayed > int64(g.offered/500+2)) {
		return nil, fmt.Errorf("live-ladder: %s: client saw %d×200 %d×503, server counted %d served %d rejected",
			name, g.ok, g.rej, g.served, g.rejected)
	}
	return g, nil
}

// ladder is the operation: the two low rungs with the gate open, a
// reconfiguration that tightens the gate, and the overload rung.
func (l *liveStack) ladder(parent int64) ([]*rung, float64, error) {
	e := l.e
	rng := sim.NewRNG(e.seed ^ 0x1adde7)
	var rungs []*rung
	var reconfMS float64
	for i, name := range rungNames {
		d := time.Duration(e.seconds * e.sz.shares[i] * float64(time.Second))
		arr := buildArrivals(rng, e.sz.rates[i], d)
		if i == 2 {
			params := l.srv.Params()
			params.AdmitConcurrency = gateTight
			start := time.Now()
			if err := l.srv.Reconfigure(params); err != nil {
				return nil, 0, fmt.Errorf("live-ladder: reconfigure: %w", err)
			}
			reconfMS = float64(time.Since(start)) / 1e6
		}
		g, err := l.runRung(parent, name, arr, d)
		if err != nil {
			return nil, 0, err
		}
		rungs = append(rungs, g)
	}
	return rungs, reconfMS, nil
}

func runLiveLadder(e *env) (*report, error) {
	r := newReport("live-ladder", e.traced())
	if e.traced() {
		return r, ladderTraced(e, r)
	}
	base := heapLive()
	var setupS []float64
	var l *liveStack
	for i := 0; i < e.sz.setups; i++ {
		if l != nil {
			l.close()
		}
		start := time.Now()
		var err error
		if l, err = liveSetup(e); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer l.close()

	spinMS := spin()
	watch := startWatch()
	rungs, _, err := l.ladder(0)
	cost := watch.stop()
	if err != nil {
		return nil, err
	}
	r.check("offered = 200s + 503s + errors + timeouts on every rung")
	r.check("client 200s and 503s match the server's served and rejected counters (up to replayed GETs)")

	offered := 0
	for _, g := range rungs {
		offered += g.offered
		r.Failed += g.timeouts + g.errs
		r.Timings["rt_ms_"+g.name] = summarize(g.rtMS)
		r.Timings["late_ms_"+g.name] = summarize(g.lateMS)
	}
	r1000, r2000, over := rungs[0], rungs[1], rungs[2]
	r.Attempted = offered
	r.Metrics["setup_s"] = slices.Min(setupS)
	// Every number below is the median over one-second windows of its rung;
	// the windows' own values go to -out.
	for name, vals := range map[string][]float64{
		"op_ms_p50":   r1000.perWindow(func(w window) float64 { return median(w.rtMS) }),
		"ops_per_s":   over.perWindow(func(w window) float64 { return float64(w.good) / w.seconds })[min(e.sz.settle, len(over.windows)-1):],
		"rt_over_sla": r2000.perWindow(func(w window) float64 { return median(w.rtMS) / sloMS }),
		"slo_share":   r2000.perWindow(func(w window) float64 { return float64(w.good) / float64(w.offered) }),
	} {
		r.Metrics[name] = median(vals)
		r.Repeats[name] = vals
	}
	r.Metrics["cpu_us_per_op"] = cost.CPUMS * 1e3 / float64(offered)
	r.Metrics["heap_live_mb"] = heapGrowthMB(base)
	r.Timings["spin_ms"] = summarize([]float64{spinMS})
	r.Repeats["setup_s"] = setupS
	runtime.KeepAlive(l)
	return r, nil
}

func ladderTraced(e *env, r *report) error {
	l, err := liveSetup(e)
	if err != nil {
		return err
	}
	defer l.close()
	spinMS := spin()
	root := e.tr.start(0, "ladder", "")
	watch := startWatch()
	rungs, reconfMS, err := l.ladder(root.id)
	cost := watch.stop()
	root.end()
	if err != nil {
		return err
	}
	r.check("offered = 200s + 503s + errors + timeouts on every rung")
	r.check("client 200s and 503s match the server's served and rejected counters (up to replayed GETs)")

	m := r.Metrics
	var late, svc []float64
	var admitted, rejected, served, srvRejected int64
	for _, g := range rungs {
		r.Attempted += g.offered
		r.Failed += g.timeouts + g.errs
		late = append(late, g.lateMS...)
		svc = append(svc, g.svcMS...)
		admitted += g.gateAdmitted
		rejected += g.gateReject
		served += g.served
		srvRejected += g.rejected
		m["httpd.replayed"] += float64(g.replayed)
		m["httpd.rt_p99_ms_"+g.name] = stats.Quantile(g.rtMS, 0.99)
	}
	over := rungs[2]
	m["httpd.rt_p50_ms_r1000"] = median(rungs[0].rtMS)
	m["httpd.served"], m["httpd.rejected"] = float64(served), float64(srvRejected)
	m["httpd.reconfigure_ms"] = reconfMS
	m["httpd.sessions"] = float64(l.srv.Stats().Sessions) // live sessions when the ladder ends
	m["admission.admitted"], m["admission.rejected"] = float64(admitted), float64(rejected)
	m["admission.reject_ratio_overload"] = float64(over.gateReject) / float64(over.offered)
	// Server-side mean service time, from the server's own per-class latency
	// histograms (paper-scale seconds → wall milliseconds).
	sum, count := histTotal(l.srv.Telemetry().Snapshot(), "httpd_request_seconds")
	if count > 0 {
		m["httpd.server_rt_mean_ms"] = sum / float64(count) * 1e3 / httpd.TimeScale
		m["httpd.transport_overhead_ms"] = mean(svc) - m["httpd.server_rt_mean_ms"]
	}
	m["benchmark.client_late_ms_p99"] = stats.Quantile(late, 0.99)
	m["benchmark.traced_op_ms"] = cost.WallMS
	m["benchmark.spin_ms"] = spinMS
	m["benchmark.span_coverage_share"] = 1 // a rung is its requests and the waits between them
	return ladderLoadgen(l, rungs, m)
}

// ladderLoadgen runs the program's own load generator against the same
// server at the two low rates, in short intervals the way the live agent
// uses it, and records how its view differs from the benchmark client's: it
// sheds late arrivals instead of sending them, and it times from issue into
// fourteen coarse buckets.
func ladderLoadgen(l *liveStack, rungs []*rung, m map[string]float64) error {
	e := l.e
	params := l.srv.Params()
	params.AdmitConcurrency = gateOpen
	if err := l.srv.Reconfigure(params); err != nil {
		return err
	}
	const interval = 250 * time.Millisecond
	var offered, completed, shed int
	var overrunMS, biasMS []float64
	for i := 0; i < 2; i++ {
		d, err := loadgen.New(loadgen.Options{
			BaseURL:     l.base,
			Workload:    tpcw.Workload{Mix: tpcw.Shopping, Clients: 1},
			Seed:        e.seed,
			Rate:        e.sz.rates[i] / httpd.TimeScale,
			MaxInFlight: e.sz.connections,
			Timeout:     requestTimeout,
		})
		if err != nil {
			return fmt.Errorf("live-ladder: loadgen: %w", err)
		}
		var rtMS []float64
		for k := 0; k < e.sz.loadgenRuns; k++ {
			start := time.Now()
			res, err := d.Run(context.Background(), interval)
			if err != nil {
				return fmt.Errorf("live-ladder: loadgen run: %w", err)
			}
			overrunMS = append(overrunMS, float64(time.Since(start)-interval)/1e6)
			offered += res.Offered
			completed += res.Completed
			shed += res.Shed
			rtMS = append(rtMS, res.MeanRT*1e3/httpd.TimeScale)
		}
		biasMS = append(biasMS, mean(rtMS)-mean(rungs[i].rtMS))
	}
	m["loadgen.offered"], m["loadgen.completed"], m["loadgen.shed"] = float64(offered), float64(completed), float64(shed)
	if offered > 0 {
		m["loadgen.shed_ratio"] = float64(shed) / float64(offered)
	}
	m["loadgen.run_overrun_ms"] = median(overrunMS)
	m["loadgen.mean_rt_bias_ms"] = mean(biasMS)
	return nil
}
