// Package parallel is the repository's deterministic worker pool: bounded
// fan-out over an indexed set of independent work units with results
// collected in index order.
//
// The package enforces a determinism contract with its callers: a unit of
// work must depend only on its index and on inputs (including sim.RNG
// streams) derived *before* dispatch — never on execution order, worker
// identity or shared mutable state. Callers that follow the contract get
// bit-identical results for any Procs value, including Procs=1; the
// experiment harness's determinism regression test enforces this end to end.
// Split RNG streams per unit with sim.RNG.SplitN before calling Map, not
// inside the work function.
//
// Telemetry is optional: when Options.Telemetry is set, every call exports
// pool activity through the shared instruments (rac_parallel_tasks_total,
// rac_parallel_workers, rac_parallel_queue_wait_seconds). Wall-clock
// telemetry is explicitly outside the determinism contract.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rac-project/rac/internal/telemetry"
)

// Options configure one Map or ForEach call.
type Options struct {
	// Procs is the number of worker goroutines. Zero or negative means
	// runtime.NumCPU(); 1 runs the units inline on the calling goroutine.
	// More workers than units is clamped to the unit count.
	Procs int
	// Telemetry, when non-nil, receives pool instrumentation for this call.
	Telemetry *telemetry.Registry
}

// queueWaitBuckets resolve dispatch latency: queue waits are micro- to
// millisecond scale, far below the latency-scale telemetry.DefBuckets.
var queueWaitBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}

// instruments are the pool's exported metrics, get-or-created on the
// caller's registry.
type instruments struct {
	tasks   *telemetry.Counter
	workers *telemetry.Gauge
	wait    *telemetry.Histogram
}

func (o Options) instruments() *instruments {
	if o.Telemetry == nil {
		return nil
	}
	return &instruments{
		tasks: o.Telemetry.Counter("rac_parallel_tasks_total",
			"Work units dispatched through the parallel pool.", nil),
		workers: o.Telemetry.Gauge("rac_parallel_workers",
			"Worker goroutines currently serving parallel calls.", nil),
		wait: o.Telemetry.Histogram("rac_parallel_queue_wait_seconds",
			"Wall-clock wait from submission to a worker picking a unit up.",
			queueWaitBuckets, nil),
	}
}

// Workers returns the number of worker goroutines a call over n units runs:
// Options.Procs resolved against the CPU count and clamped to n. A caller
// that splits its work into one contiguous range per worker passes it as the
// unit count.
func (o Options) Workers(n int) int {
	p := o.Procs
	if p <= 0 {
		p = runtime.NumCPU()
	}
	if p > n {
		p = n
	}
	return p
}

// Map runs fn(0..n-1) on up to Procs workers and returns the results in
// index order. The first error (lowest index among units that ran) cancels
// the call: no new units start, in-flight units finish, and the error is
// returned with a nil slice. fn must follow the package determinism
// contract when Procs may exceed 1.
func Map[T any](opts Options, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	procs := opts.Workers(n)
	ins := opts.instruments()
	start := time.Now()
	if ins != nil {
		ins.tasks.Add(int64(n))
		ins.workers.Add(float64(procs))
		defer ins.workers.Add(-float64(procs))
	}

	if procs == 1 {
		// Inline sequential path: the reference semantics the parallel path
		// must be indistinguishable from.
		for i := 0; i < n; i++ {
			if ins != nil {
				ins.wait.Observe(time.Since(start).Seconds())
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		errIndex = n
		firstErr error
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || stopped.Load() {
				return
			}
			if ins != nil {
				ins.wait.Observe(time.Since(start).Seconds())
			}
			v, err := fn(i)
			if err != nil {
				mu.Lock()
				if i < errIndex {
					errIndex, firstErr = i, err
				}
				mu.Unlock()
				stopped.Store(true)
				continue
			}
			out[i] = v
		}
	}
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		go worker()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// ForEach runs fn(0..n-1) on up to Procs workers, with Map's cancellation
// and determinism semantics, discarding results.
func ForEach(opts Options, n int, fn func(i int) error) error {
	_, err := Map(opts, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
