package loadgen

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
)

// arrival is one slot of the open-loop schedule: when to issue (wall-clock
// seconds from interval start) and which interaction class.
type arrival struct {
	at    float64
	class tpcw.Class
}

// shedGrace is how far behind schedule an arrival may start before the
// engine sheds it (wall clock): one paper-scale second under the 100×
// compression.
const shedGrace = 10 * time.Millisecond

// buildSchedule lays out the whole interval's offered load up front, from a
// single RNG stream consumed sequentially. Everything downstream — worker
// count, GOMAXPROCS — only decides who executes each slot, never what the
// slots are, which is what makes an open-loop run byte-identical at any
// in-flight bound.
func buildSchedule(o Options, rate float64, mix tpcw.Mix, duration time.Duration) []arrival {
	wallSeconds := duration.Seconds()
	n := int(rate*wallSeconds*httpd.TimeScale + 0.5)
	if n <= 0 {
		return nil
	}
	rng := sim.NewRNG(o.Seed ^ 0x09E41009)
	sched := make([]arrival, n)

	switch o.ArrivalProcess {
	case ArrivalUniform:
		gap := wallSeconds / float64(n)
		for k := range sched {
			sched[k].at = (float64(k) + 0.5) * gap
		}
	default: // ArrivalPoisson
		// A Poisson process conditioned on n arrivals in [0, D) is n sorted
		// uniforms, generated in order via normalized exponential spacings:
		// t_k = D · S_k/S_{n+1} with S the prefix sums of n+1 Exp(1) draws.
		// Sequential like the uniform case, and never past the interval end.
		gaps := make([]float64, n+1)
		var total float64
		for i := range gaps {
			gaps[i] = rng.ExpFloat64(1)
			total += gaps[i]
		}
		var cum float64
		for k := range sched {
			cum += gaps[k]
			sched[k].at = wallSeconds * cum / total
		}
	}

	probs := tpcw.ClassProbs(mix)
	classes := tpcw.Classes()
	for k := range sched {
		sched[k].class = classes[rng.Pick(probs)]
	}
	return sched
}

// acct is one interval's accounting: a latency histogram for completed
// requests plus error/shed/rejected counters. Workers touch only atomics here
// (the histogram shards itself by GOMAXPROCS) — the per-request hot path
// neither locks nor allocates.
type acct struct {
	hist *telemetry.Histogram
	errs atomic.Int64
	shed atomic.Int64
	rej  atomic.Int64
}

// takeWindow builds one interval's schedule. Static rates lay the interval
// out from the per-interval salted stream (every interval offers the same
// load); a workload Schedule consumes its next window from the driver's one
// sequential stream, advancing the cursor, so consecutive intervals trace the
// scenario. Runs under mu, which guards the cursor and stream.
func (d *Driver) takeWindow(rate float64, mix tpcw.Mix, duration time.Duration) []arrival {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sched == nil {
		return buildSchedule(d.opts, rate, mix, duration)
	}
	t0 := d.pos
	t1 := t0 + duration.Seconds()*httpd.TimeScale
	d.pos = t1
	win := d.sched.Window(d.schedRNG, t0, t1)
	sched := make([]arrival, len(win))
	for i, a := range win {
		sched[i] = arrival{at: (a.T - t0) / httpd.TimeScale, class: a.Class}
	}
	return sched
}

// runOpen drives the open-loop engine for one interval: pre-built schedule,
// MaxInFlight pacing workers (each owns at most one outstanding request),
// pooled keep-alive connections, one shared accounting.
func (d *Driver) runOpen(ctx context.Context, duration time.Duration, mix tpcw.Mix, rate float64) (Result, error) {
	o := d.opts
	sched := d.takeWindow(rate, mix, duration)
	if d.offered != nil {
		d.offered.Add(int64(len(sched)))
	}
	ac := &acct{hist: telemetry.NewHistogram(nil)}

	transport := &http.Transport{
		MaxIdleConns:        2 * o.MaxInFlight,
		MaxIdleConnsPerHost: o.MaxInFlight,
		IdleConnTimeout:     30 * time.Second,
	}
	client := &http.Client{Transport: transport, Timeout: o.Timeout}
	defer transport.CloseIdleConnections()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.MaxInFlight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.openWorker(ctx, client, sched, ac, w, start)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, err // canceled interval: partial data is meaningless
	}

	snap := ac.hist.Snapshot()
	res := Result{
		Completed: int(snap.Count),
		Errors:    int(ac.errs.Load()),
		Offered:   len(sched),
		Shed:      int(ac.shed.Load()),
		Rejected:  int(ac.rej.Load()),
	}
	if snap.Count > 0 {
		res.MeanRT = snap.Sum / float64(snap.Count)
		res.P95RT = snap.Quantile(0.95)
	}
	if paperSeconds := duration.Seconds() * httpd.TimeScale; paperSeconds > 0 {
		res.Throughput = float64(snap.Count) / paperSeconds
		// The interval's actually-offered rate, so schedule-driven drift is
		// visible per interval, not just the static Rate option.
		res.OfferedRate = float64(len(sched)) / paperSeconds
	}
	return res, nil
}

// openWorker executes its fixed subsequence of the schedule: worker w owns
// indices k ≡ w (mod MaxInFlight). The assignment is a pure function of the
// indices, so which goroutine runs a slot never changes what the slot does.
func (d *Driver) openWorker(ctx context.Context, client *http.Client, sched []arrival,
	ac *acct, w int, start time.Time) {
	var timer *time.Timer
	for k := w; k < len(sched); k += d.opts.MaxInFlight {
		a := sched[k]

		if d.exec != nil {
			// Test hook: pure function of the arrival, no pacing, no HTTP —
			// exercises exactly the accounting path.
			rt, status := d.exec(k, a.class)
			switch status {
			case reqError:
				ac.errs.Add(1)
			case reqRejected:
				ac.rej.Add(1)
			default:
				ac.hist.Observe(rt)
			}
			continue
		}

		target := start.Add(time.Duration(a.at * float64(time.Second)))
		wait := time.Until(target)
		if wait > 0 {
			if timer == nil {
				timer = time.NewTimer(wait)
				defer timer.Stop()
			} else {
				timer.Reset(wait)
			}
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		} else if -wait > shedGrace {
			// Too far behind schedule (the previous request on this worker
			// overstayed, or the whole engine is saturated): count the
			// arrival as shed instead of issuing it late and polluting the
			// latency distribution with self-inflicted queueing.
			ac.shed.Add(1)
			if d.shed != nil {
				d.shed.Inc()
			}
			continue
		}
		if ctx.Err() != nil {
			return
		}

		if d.issued != nil {
			d.issued.Inc()
		}
		status := d.request(ctx, client, a.class)
		if ctx.Err() != nil {
			return // do not record requests cut off by cancellation
		}
		switch status {
		case reqOK:
			// Timed from when the arrival was due, not from when it left: a
			// request issued up to shedGrace late keeps its lateness.
			ac.hist.Observe(time.Since(target).Seconds() * httpd.TimeScale)
		case reqRejected:
			ac.rej.Add(1)
			if d.rejected != nil {
				d.rejected.Inc()
			}
		default:
			ac.errs.Add(1)
			if d.errored != nil {
				d.errored.Inc()
			}
		}
	}
}
