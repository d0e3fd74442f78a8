package parallel

import (
	"errors"
	"fmt"
	"sync"
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

// TestLenderLendsEachScratchOnce: scratch borrowed at once is distinct, is
// lent again once given back, and the lender never keeps more than were out
// at once.
func TestLenderLendsEachScratchOnce(t *testing.T) {
	var l Lender[[]int]
	out := make([]*[]int, 40)
	for i := range out {
		out[i] = l.Borrow()
		for _, w := range out[:i] {
			if w == out[i] {
				t.Fatalf("borrow %d lent scratch already out", i)
			}
		}
	}
	for _, w := range out {
		l.GiveBack(w)
	}
	if len(l.free) != len(out) {
		t.Fatalf("the lender keeps %d of the %d given back", len(l.free), len(out))
	}
	w := l.Borrow()
	*w = append(*w, 1)
	l.GiveBack(w)
	if again := l.Borrow(); again != w || len(*again) != 1 {
		t.Fatal("scratch given back was not lent again as it was left")
	}
	l.GiveBack(w)
	const workers = 8
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				w := l.Borrow()
				*w = append((*w)[:0], 1, 2)
				l.GiveBack(w)
			}
		}()
	}
	wg.Wait()
	// 40 were out at once before, at most 8 since: the lender keeps 40.
	if len(l.free) != len(out) {
		t.Fatalf("after %d workers the lender keeps %d, want the %d once out at once", workers, len(l.free), len(out))
	}
}
