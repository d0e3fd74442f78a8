// Package loadgen drives HTTP load against the live three-tier stack in one
// of two modes. The closed loop emulates TPC-W browsers — think → request →
// think with mix-weighted interaction classes and per-browser cookie jars —
// so concurrency equals the emulated population. The open loop (Options.Rate
// > 0) offers load on a fixed arrival schedule regardless of how fast the
// system answers: MaxInFlight workers pace Poisson or uniform arrivals from
// one deterministic schedule, account every response into one latency
// histogram without allocating, and shed arrivals they cannot issue on time
// instead of silently delaying them (no coordinated omission). Both
// modes run on the same compressed time scale as package httpd.
package loadgen

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/cookiejar"
	"sync"
	"time"

	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/stats"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/workload"
)

// classPath maps interaction classes to server routes.
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
	default:
		return "/admin-task"
	}
}

// Result is one measurement interval of generated load. Response times are
// reported in *paper-scale* seconds (wall-clock times multiplied back by
// httpd.TimeScale) so they are directly comparable with the simulator's
// metrics; the alias makes Driver satisfy httpd.LoadDriver.
type Result = httpd.MeasureResult

// Driver generates load against a base URL, in closed- or open-loop mode
// depending on its Options.
type Driver struct {
	opts Options
	base string
	seed uint64

	// mu guards the mutable load shape — the workload and the schedule
	// cursor — against swaps racing an in-flight Run. Run snapshots under mu
	// once per interval; an in-flight interval keeps the shape it started
	// with and the next Run sees the swap.
	mu       sync.Mutex
	workload tpcw.Workload
	sched    *workload.Schedule
	schedRNG *sim.RNG
	pos      float64 // scenario seconds already consumed from the schedule

	// exec, when non-nil, replaces the HTTP request + pacing of the
	// open-loop engine with a pure function of the arrival (tests use it to
	// make the accounting path fully deterministic).
	exec func(k int, class tpcw.Class) (rt float64, status reqStatus)

	// Optional instruments (see SetTelemetry); nil when unwired.
	issued   *telemetry.Counter
	errored  *telemetry.Counter
	offered  *telemetry.Counter
	shed     *telemetry.Counter
	rejected *telemetry.Counter
}

// reqStatus classifies one request's outcome. The three-way split is the
// accounting contract: an error is the system failing, a rejection is the
// server's SLO admission gate deliberately answering 503, and neither is a
// latency sample.
type reqStatus int

const (
	reqOK reqStatus = iota
	reqRejected
	reqError
)

// New builds a driver from validated options.
func New(opts Options) (*Driver, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Driver{opts: o, base: o.BaseURL, workload: o.Workload, seed: o.Seed,
		sched: o.Schedule}
	if d.sched != nil {
		// One sequential arrival stream for the whole run: every interval's
		// window draws from it front to back, so a replay at any in-flight
		// bound is byte-identical.
		d.schedRNG = workload.ScheduleRNG(o.Seed)
	}
	return d, nil
}

// Options returns the driver's resolved options (defaults filled in).
func (d *Driver) Options() Options { return d.opts }

// SetTelemetry registers the driver's request counters on reg (typically the
// live server's registry, so generator-side counts sit next to the
// server-side ones on /metrics). Call before Run.
func (d *Driver) SetTelemetry(reg *telemetry.Registry) {
	d.issued = reg.Counter("loadgen_requests_total",
		"Requests issued by the emulated browsers.", nil)
	d.errored = reg.Counter("loadgen_request_errors_total",
		"Issued requests that failed, timed out, or returned a non-200 status.", nil)
	d.offered = reg.Counter("loadgen_offered_total",
		"Requests the open-loop schedule offered.", nil)
	d.shed = reg.Counter("loadgen_shed_total",
		"Offered requests shed by open-loop admission control instead of issued late.", nil)
	d.rejected = reg.Counter("loadgen_rejected_total",
		"Issued requests the server's SLO admission gate answered with 503.", nil)
}

// SetWorkload changes the emulated population for subsequent runs. An
// in-flight Run keeps the workload it snapshotted at interval start.
func (d *Driver) SetWorkload(w tpcw.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	d.workload = w
	d.mu.Unlock()
	return nil
}

// Workload returns the current workload.
func (d *Driver) Workload() tpcw.Workload {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workload
}

// Run generates load for the given wall-clock duration and returns interval
// statistics. It is synchronous; every worker goroutine exits before Run
// returns. With a positive rate or a Schedule it runs the open-loop engine;
// otherwise the closed-loop emulated browsers.
func (d *Driver) Run(ctx context.Context, duration time.Duration) (Result, error) {
	if duration <= 0 {
		return Result{}, errors.New("loadgen: non-positive duration")
	}
	d.mu.Lock()
	w := d.workload
	d.mu.Unlock()
	if rate := d.opts.Rate; rate > 0 || d.sched != nil {
		return d.runOpen(ctx, duration, w.Mix, rate)
	}
	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	var (
		mu   sync.Mutex
		rts  []float64
		nErr int
		nRej int
	)
	record := func(rt float64, status reqStatus) {
		mu.Lock()
		defer mu.Unlock()
		switch status {
		case reqError:
			nErr++
		case reqRejected:
			nRej++
		default:
			rts = append(rts, rt)
		}
	}

	root := sim.NewRNG(d.seed)
	var wg sync.WaitGroup
	for i := 0; i < w.Clients; i++ {
		rng := root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.browser(runCtx, w.Mix, rng, record)
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	res := Result{Completed: len(rts), Errors: nErr, Rejected: nRej}
	if len(rts) > 0 {
		sum := stats.Summarize(rts)
		res.MeanRT = sum.Mean
		res.P95RT = sum.P95
	}
	paperSeconds := duration.Seconds() * httpd.TimeScale
	if paperSeconds > 0 {
		res.Throughput = float64(len(rts)) / paperSeconds
	}
	return res, nil
}

// browser runs one emulated browser until the context ends.
func (d *Driver) browser(ctx context.Context, mix tpcw.Mix, rng *sim.RNG, record func(float64, reqStatus)) {
	gen, err := tpcw.NewGenerator(mix, rng)
	if err != nil {
		return
	}
	jar, err := cookiejar.New(nil)
	if err != nil {
		return
	}
	client := &http.Client{
		Jar:     jar,
		Timeout: 5 * time.Second,
	}
	defer client.CloseIdleConnections()

	for {
		// Think (compressed time scale).
		think := time.Duration(gen.ThinkTime() / httpd.TimeScale * float64(time.Second))
		select {
		case <-ctx.Done():
			return
		case <-time.After(think):
		}

		class := gen.NextClass()
		if d.issued != nil {
			d.issued.Inc()
		}
		start := time.Now()
		status := d.request(ctx, client, class)
		if ctx.Err() != nil {
			return // do not record requests cut off by the interval end
		}
		switch status {
		case reqError:
			if d.errored != nil {
				d.errored.Inc()
			}
		case reqRejected:
			if d.rejected != nil {
				d.rejected.Inc()
			}
		}
		elapsed := time.Since(start).Seconds() * httpd.TimeScale
		record(elapsed, status)

		if gen.SessionOver() {
			// New user: drop cookies and the connection.
			jar, err = cookiejar.New(nil)
			if err != nil {
				return
			}
			client.CloseIdleConnections()
			client.Jar = jar
		}
	}
}

// request performs one interaction and classifies its outcome. A 503 is the
// server's admission gate deliberately rejecting the request; every other
// non-200 outcome (including transport errors) is an error.
func (d *Driver) request(ctx context.Context, client *http.Client, class tpcw.Class) reqStatus {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+classPath(class), nil)
	if err != nil {
		return reqError
	}
	resp, err := client.Do(req)
	if err != nil {
		return reqError
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return reqError
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return reqOK
	case http.StatusServiceUnavailable:
		return reqRejected
	default:
		return reqError
	}
}
