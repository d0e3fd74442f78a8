package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/workload"
)

// varyingScenario is a deliberately non-stationary schedule: a sinusoidal
// "diurnal" phase followed by an ordering phase with an embedded flash-crowd
// spike. Four 1 s wall intervals (100 scenario seconds each) cover it.
func varyingScenario(t testing.TB) *workload.Schedule {
	t.Helper()
	s, err := workload.Compile(workload.Scenario{
		Name: "varying",
		Phases: []workload.Phase{
			{Name: "diurnal", DurationSeconds: 200, Rate: 40, Mix: "shopping",
				Modulate: []workload.Modulation{
					{Op: workload.OpSinusoid, PeriodSeconds: 200, Amplitude: 0.5},
				}},
			{Name: "crowd", DurationSeconds: 200, Rate: 60, Mix: "ordering",
				Modulate: []workload.Modulation{
					{Op: workload.OpSpike, AtSeconds: 50, DurationSeconds: 50, Factor: 2},
				}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scheduleRun drives the open-loop engine through exec-hook intervals of a
// workload schedule, returning one Result per interval. Dyadic-rational
// latencies keep every float sum exact (see openLoopRun).
func scheduleRun(t testing.TB, src *workload.Schedule, inFlight int) []Result {
	t.Helper()
	o := validOptions()
	o.Seed = 42
	o.Schedule = src
	o.MaxInFlight = inFlight
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	d.exec = func(k int, class tpcw.Class) (float64, reqStatus) {
		switch {
		case k%7 == 0:
			return 0, reqError
		case k%11 == 0:
			return 0, reqRejected
		default:
			return 0.25 + float64(k%16)*0.25 + float64(class)*0.125, reqOK
		}
	}
	results := make([]Result, 4)
	for i := range results {
		res, err := d.Run(context.Background(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	return results
}

// TestScheduleShardInvariance is the time-varying analogue of
// TestOpenLoopShardInvariance: under a diurnal + spike schedule the interval
// results must stay byte-identical for any in-flight bound, because the
// arrivals come from one sequential stream the workers only partition.
func TestScheduleShardInvariance(t *testing.T) {
	base := scheduleRun(t, varyingScenario(t), 1)
	if base[0].Offered == 0 || base[3].Offered == 0 {
		t.Fatalf("degenerate baseline %+v", base)
	}
	// The spike interval [300, 400) must offer visibly more than the last
	// diurnal interval — otherwise the schedule was not actually varying.
	if base[3].Offered < base[1].Offered {
		t.Fatalf("schedule not time-varying: %+v", base)
	}
	for _, inFlight := range []int{6, 8, 16, 64, 128} {
		got := scheduleRun(t, varyingScenario(t), inFlight)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("inflight=%d: %+v != baseline %+v", inFlight, got, base)
		}
	}
}

// TestWorkloadSwapDuringRun is the SetWorkload race regression: the swap
// must be safe against an in-flight Run in either mode. Its value is
// under `go test -race`, which fails on the unguarded field writes this
// exercised before the driver mutex.
func TestWorkloadSwapDuringRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	swap := func(d *Driver, stop <-chan struct{}) {
		mixes := tpcw.Mixes()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.SetWorkload(tpcw.Workload{Mix: mixes[i%3], Clients: 4 + i%8}); err != nil {
				t.Error(err)
				return
			}
			d.Workload()
		}
	}

	t.Run("open", func(t *testing.T) {
		o := validOptions()
		o.BaseURL = srv.URL
		o.Rate = 2
		o.Workload.Clients = 4
		d, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); swap(d, stop) }()
		for i := 0; i < 3; i++ {
			if _, err := d.Run(context.Background(), 100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
	})

	t.Run("closed", func(t *testing.T) {
		o := validOptions()
		o.BaseURL = srv.URL
		o.Workload.Clients = 4
		d, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); swap(d, stop) }()
		if _, err := d.Run(context.Background(), 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
	})
}

// TestScheduleOptionExclusive checks the Schedule/Rate exclusivity rule.
func TestScheduleOptionExclusive(t *testing.T) {
	o := validOptions()
	o.Rate = 10
	o.Schedule = varyingScenario(t)
	if _, err := New(o); err == nil {
		t.Fatal("expected Schedule+Rate to be rejected")
	}
}
