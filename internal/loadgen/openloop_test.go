package loadgen

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/tpcw"
)

func validOptions() Options {
	return Options{
		BaseURL:  "http://127.0.0.1:1",
		Workload: tpcw.Workload{Mix: tpcw.Shopping, Clients: 1},
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		want   error
	}{
		{"empty url", func(o *Options) { o.BaseURL = "" }, ErrBadURL},
		{"bad workload", func(o *Options) { o.Workload = tpcw.Workload{} }, ErrBadWorkload},
		{"negative rate", func(o *Options) { o.Rate = -1 }, ErrBadRate},
		{"bad arrival", func(o *Options) { o.ArrivalProcess = "bursty" }, ErrBadArrival},
		{"negative inflight", func(o *Options) { o.MaxInFlight = -2 }, ErrBadInFlight},
		{"negative timeout", func(o *Options) { o.Timeout = -time.Second }, ErrBadTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOptions()
			tc.mutate(&o)
			if _, err := New(o); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	d, err := New(validOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := d.Options()
	if o.MaxInFlight != 64 {
		t.Fatalf("inflight default: %d", o.MaxInFlight)
	}
	if o.ArrivalProcess != ArrivalPoisson {
		t.Fatalf("arrival default: %q", o.ArrivalProcess)
	}
	if o.Timeout != 5*time.Second {
		t.Fatalf("timeout default: %v", o.Timeout)
	}
}

func TestParseArrival(t *testing.T) {
	for name, want := range map[string]Arrival{
		"":        ArrivalPoisson,
		"poisson": ArrivalPoisson,
		"uniform": ArrivalUniform,
	} {
		got, err := ParseArrival(name)
		if err != nil || got != want {
			t.Fatalf("ParseArrival(%q) = %q, %v", name, got, err)
		}
	}
	if _, err := ParseArrival("bursty"); !errors.Is(err, ErrBadArrival) {
		t.Fatalf("bad arrival error: %v", err)
	}
}

func TestBuildSchedule(t *testing.T) {
	for _, arr := range []Arrival{ArrivalPoisson, ArrivalUniform} {
		t.Run(string(arr), func(t *testing.T) {
			o := validOptions()
			o.Rate = 5 // paper req/s → 5·2·100 = 1000 arrivals over 2 s wall
			o.ArrivalProcess = arr
			o.Seed = 99
			dur := 2 * time.Second
			sched := buildSchedule(o, o.Rate, tpcw.Shopping, dur)
			if len(sched) != 1000 {
				t.Fatalf("schedule length %d, want 1000", len(sched))
			}
			prev := 0.0
			for k, a := range sched {
				if a.at < prev || a.at >= dur.Seconds() {
					t.Fatalf("arrival %d at %v out of order or past interval end", k, a.at)
				}
				prev = a.at
			}
			again := buildSchedule(o, o.Rate, tpcw.Shopping, dur)
			if !reflect.DeepEqual(sched, again) {
				t.Fatal("schedule not deterministic")
			}
		})
	}
}

// openLoopRun drives the open-loop engine through the pure exec hook — no
// pacing, no HTTP — so the accounting path can be checked for exact
// determinism. Latencies are dyadic rationals: every float sum is exact, so
// the result cannot depend on which goroutine summed what.
func openLoopRun(t *testing.T, inFlight int) Result {
	t.Helper()
	o := validOptions()
	o.Seed = 42
	o.Rate = 50 // 50·2·100 = 10000 slots
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
			return 0, reqRejected // admission-gate 503s
		default:
			return 0.25 + float64(k%16)*0.25, reqOK
		}
	}
	res, err := d.Run(context.Background(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOpenLoopShardInvariance holds an interval's Result byte-identical at
// any in-flight bound: the workers only partition one fixed schedule.
func TestOpenLoopShardInvariance(t *testing.T) {
	base := openLoopRun(t, 1)
	if base.Offered != 10000 {
		t.Fatalf("offered %d, want 10000", base.Offered)
	}
	if base.Completed == 0 || base.Errors == 0 || base.Rejected == 0 {
		t.Fatalf("degenerate baseline %+v", base)
	}
	// Exact accounting identity: every offered slot is completed, errored, or
	// rejected (nothing sheds through the pure exec hook) — and 503s land in
	// Rejected, never in Errors.
	if base.Completed+base.Errors+base.Rejected != base.Offered {
		t.Fatalf("accounting identity broken: %+v", base)
	}
	for _, inFlight := range []int{6, 8, 16, 64, 128} {
		if got := openLoopRun(t, inFlight); !reflect.DeepEqual(got, base) {
			t.Fatalf("inflight=%d: %+v != baseline %+v", inFlight, got, base)
		}
	}
}

// TestOpenLoopInFlightBound checks the engine never has more than
// MaxInFlight requests outstanding, and that it uses the whole bound: every
// worker owns one slot at a time, so a saturated run reaches it exactly.
func TestOpenLoopInFlightBound(t *testing.T) {
	for _, inFlight := range []int{1, 6, 64} {
		o := validOptions()
		o.Seed = 5
		o.Rate = 2 // 2·0.5·100 = 100 slots
		o.MaxInFlight = inFlight
		d, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		var cur, peak atomic.Int64
		d.exec = func(int, tpcw.Class) (float64, reqStatus) {
			n := cur.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return 1, reqOK
		}
		if _, err := d.Run(context.Background(), 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		got := peak.Load()
		if got > int64(inFlight) {
			t.Fatalf("inflight=%d: peak %d outstanding", inFlight, got)
		}
		if inFlight == 6 && got != 6 {
			t.Fatalf("inflight=6: peak %d, want the bound reached", got)
		}
	}
}

// TestOpenLoopAccountingRace hammers the shared accounting concurrently; its
// value is under `go test -race`, where any unsynchronized counter or
// histogram write in the hot path fails the run.
func TestOpenLoopAccountingRace(t *testing.T) {
	t.Parallel()
	for i := 0; i < 3; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			res := openLoopRun(t, 64)
			if res.Completed+res.Errors+res.Rejected != res.Offered {
				t.Fatalf("run %d lost slots: %+v", i, res)
			}
		})
	}
}

func TestOpenLoopBackpressureSheds(t *testing.T) {
	// A backend slower than the offered rate under a tight in-flight bound:
	// the engine must shed late arrivals and account for every slot, rather
	// than issue them late (coordinated omission) or lose them.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()

	o := validOptions()
	o.BaseURL = srv.URL
	o.Seed = 7
	o.Rate = 4        // 4·0.5·100 = 200 arrivals in 0.5 s wall = 400 req/s offered
	o.MaxInFlight = 4 // capacity ≈ 4/20ms = 200 req/s — half the offered load
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("no arrivals shed against a saturated backend: %+v", res)
	}
	if res.Completed+res.Errors+res.Shed != res.Offered {
		t.Fatalf("slots unaccounted for: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
}

// TestOpenLoopTimesFromSchedule: a response time runs from when the arrival
// was due, not from when the engine got round to sending it. Two uniform
// arrivals g apart share one worker; the first request's handler takes g plus
// a few milliseconds, so the second leaves late by at least h1 − g (h1 is the
// first handler's measured time, which can only run long) and its handler
// returns at once. The first response time is at least h1, so the two sum to
// at least 2·h1 − g — which timing from the send undercuts by the lateness.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	const (
		window = 100 * time.Millisecond
		gap    = window / 2
	)
	var first atomic.Bool
	var h1 atomic.Int64 // nanoseconds
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			start := time.Now()
			time.Sleep(gap + 3*time.Millisecond)
			h1.Store(int64(time.Since(start)))
		}
	}))
	defer srv.Close()

	o := validOptions()
	o.BaseURL = srv.URL
	o.ArrivalProcess = ArrivalUniform
	o.Rate = 0.2 // 0.2·0.1·100 = 2 arrivals, at 25 ms and 75 ms
	o.MaxInFlight = 1
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 2 || res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("want two clean arrivals: %+v", res)
	}
	if res.Shed != 0 {
		t.Skipf("the late arrival was shed (more than %v late): host too busy to test timing", shedGrace)
	}
	late := time.Duration(h1.Load()) - gap
	sum := time.Duration(2 * res.MeanRT / httpd.TimeScale * float64(time.Second))
	if want := time.Duration(h1.Load()) + late - time.Microsecond; sum < want {
		t.Fatalf("response times sum to %v, want at least %v: the second arrival's %v lateness is not counted",
			sum, want, late)
	}
}

// TestOpenLoop503CountsRejected is the admission-gate accounting regression:
// a server answering 503 must land those requests in Rejected — not Errors —
// through the real HTTP path, and the offered = completed + errors + shed +
// rejected identity must stay exact.
func TestOpenLoop503CountsRejected(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			http.Error(w, "admission gate", http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()

	o := validOptions()
	o.BaseURL = srv.URL
	o.Seed = 11
	o.Rate = 2 // 2·0.5·100 = 100 arrivals over 0.5 s wall
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatalf("503s not counted as rejected: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("503s leaked into Errors: %+v", res)
	}
	if res.Completed+res.Errors+res.Shed+res.Rejected != res.Offered {
		t.Fatalf("slots unaccounted for: %+v", res)
	}
}

func TestOpenLoopAgainstLiveStack(t *testing.T) {
	srv, base := startStack(t)
	o := validOptions()
	o.BaseURL = base
	o.Seed = 21
	o.Rate = 2 // 2·0.5·100 = 100 arrivals over 0.5 s wall
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 100 {
		t.Fatalf("offered %d, want 100", res.Offered)
	}
	if res.Completed == 0 || res.MeanRT <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if srv.Stats().Served == 0 {
		t.Fatal("server saw no traffic")
	}
}

func TestOpenLoopCancellation(t *testing.T) {
	_, base := startStack(t)
	o := validOptions()
	o.BaseURL = base
	o.Rate = 1
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Run(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
}

// The acceptance benchmark pair: sustained completed-request throughput of
// the seed closed-loop browser driver versus the open-loop engine against the
// same live stack. Compare the req/s metrics:
//
//	go test ./internal/loadgen -bench Sustained -benchtime 3x
func benchSustained(b *testing.B, opts Options) {
	srv, base := startStack(b)
	opts.BaseURL = base
	d, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	const interval = 250 * time.Millisecond
	var completed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Run(context.Background(), interval)
		if err != nil {
			b.Fatal(err)
		}
		completed += res.Completed
	}
	b.StopTimer()
	elapsed := float64(b.N) * interval.Seconds()
	b.ReportMetric(float64(completed)/elapsed, "req/s")
	b.ReportMetric(float64(srv.Stats().Served), "served")
}

func BenchmarkClosedLoopSustained(b *testing.B) {
	benchSustained(b, Options{
		Workload: tpcw.Workload{Mix: tpcw.Shopping, Clients: 20},
		Seed:     3,
	})
}

func BenchmarkOpenLoopSustained(b *testing.B) {
	benchSustained(b, Options{
		Workload:    tpcw.Workload{Mix: tpcw.Shopping, Clients: 20},
		Seed:        3,
		Rate:        40, // paper req/s → 40·TimeScale = 4000 wall req/s offered
		MaxInFlight: 128,
	})
}
