package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/telemetry"
)

func TestMapOrdersResults(t *testing.T) {
	for _, procs := range []int{0, 1, 2, 7, 64} {
		got, err := Map(Options{Procs: procs}, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if len(got) != 100 {
			t.Fatalf("procs=%d: %d results", procs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("procs=%d: result[%d] = %d", procs, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(Options{}, 0, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapWorkerCountInvariance(t *testing.T) {
	// The determinism contract: pre-split RNG streams make the output
	// independent of the worker count.
	run := func(procs int) []float64 {
		streams := sim.NewRNG(42).SplitN(64)
		out, err := Map(Options{Procs: procs}, 64, func(i int) (float64, error) {
			return streams[i].Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, procs := range []int{2, 5, 16} {
		got := run(procs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("procs=%d: result[%d] = %v, want %v", procs, i, got[i], want[i])
			}
		}
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	// The error is built up front: a first, cold fmt.Errorf inside unit 3
	// takes tens of microseconds, long enough for the other workers to finish
	// all 1000 trivial units before the cancellation lands.
	unitErr := fmt.Errorf("unit 3: %w", boom)
	_, err := Map(Options{Procs: 4}, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, unitErr
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the pool: %d calls", n)
	}
}

func TestMapSequentialErrorStopsEarly(t *testing.T) {
	var calls int
	_, err := Map(Options{Procs: 1}, 100, func(i int) (int, error) {
		calls++
		if i == 5 {
			return 0, errors.New("stop")
		}
		return 0, nil
	})
	if err == nil || calls != 6 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(Options{Procs: 3}, 10, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if err := ForEach(Options{Procs: 3}, 10, func(i int) error {
		return errors.New("x")
	}); err == nil {
		t.Fatal("error swallowed")
	}
}

func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := Options{Procs: 4, Telemetry: reg}
	if err := ForEach(opts, 32, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("rac_parallel_tasks_total", "", nil).Value(); got != 32 {
		t.Fatalf("tasks counter = %d", got)
	}
	// Workers return to zero once the call completes.
	if got := reg.Gauge("rac_parallel_workers", "", nil).Value(); got != 0 {
		t.Fatalf("workers gauge = %v", got)
	}
	h := reg.Histogram("rac_parallel_queue_wait_seconds", "", queueWaitBuckets, nil)
	if snap := h.Snapshot(); snap.Count != 32 {
		t.Fatalf("queue-wait observations = %d", snap.Count)
	}
}
