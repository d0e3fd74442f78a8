package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/rac-project/rac/internal/telemetry"
)

// slaSeconds is the paper's service-level agreement (core.DefaultOptions):
// the reference every quality metric is normalised by.
const slaSeconds = 2.0

// programSeed is the seed handed to every RNG the program owns (policy
// training, agent exploration, simulator streams, the fleet's tenant seeds).
// It is configuration of the program, held at the value the paper figures are
// generated with, and not derived from -seed: -seed makes the benchmark's
// inputs (arrival schedule, tenant mix, training order). A reinforcement
// learner's quality over ninety steps moves ±15 % with its exploration seed;
// held fixed, the quality metrics repeat to the bit on every run and on both
// sides of a comparison, so any change in them is a change in behaviour.
const programSeed = 1

// sizes are the knobs that set how much work one operation is. The full sizes
// are the ones every committed number was measured at; the tests shrink them
// so `go test ./...` stays fast.
type sizes struct {
	// setups is how many times an untraced run repeats its set-up; setup_s is
	// the fastest.
	setups int
	// checkQuality enables the checks on output quality, which need the
	// full-size operation to hold (an agent needs five violations in a row to
	// switch policy, more steps than a test-size schedule has).
	checkQuality bool
	// train-cold
	trainContexts int // Table-2 contexts trained per operation
	coarseLevels  int
	trainSweeps   int // 0 = the default offline schedule (400 sweeps)
	// fig05-sim
	figIterations int // agent steps per context phase (three phases)
	figQuick      bool
	// fleet-steady
	tenants     int
	warmRounds  int
	timedRounds int
	ckptTenants int // tenants of the checkpoint/restore side fleet (traced run)
	// live-ladder
	connections int
	rates       [3]float64 // requests per wall second at r1000, r2000, overload
	shares      [3]float64 // share of -seconds each rung runs for
	// settle is how many of the overload rung's one-second windows pass before
	// its goodput is read: the gate's controller leaves the low rungs with its
	// limit scaled up to 1.5 and takes ten epochs of a thousand requests to
	// scale it down to 0.5, where it stays.
	settle       int
	warmRequests int
	loadgenRuns  int // loadgen intervals per rate (traced run)
	// probes
	probeBudget time.Duration // wall time each probe loop may use
}

func fullSizes() sizes {
	return sizes{
		setups: 3, checkQuality: true,
		trainContexts: 6, coarseLevels: 4,
		figIterations: 30,
		tenants:       1000, warmRounds: 3, timedRounds: 30, ckptTenants: 50,
		connections: 16, rates: [3]float64{1000, 2000, 6000}, shares: [3]float64{0.3, 0.3, 0.4}, settle: 2,
		warmRequests: 1600, loadgenRuns: 4,
		probeBudget: 60 * time.Millisecond,
	}
}

// env is what a workload run is given.
type env struct {
	seed    uint64
	seconds float64
	procs   int
	// tr is nil on an untraced run. A traced run does one set-up and one
	// operation with spans on and reports per-layer metrics; an untraced run
	// reports the end-to-end metrics.
	tr     *tracer
	outDir string
	sz     sizes
}

func (e *env) traced() bool { return e.tr != nil }

// scratch returns a fresh directory under the benchmark's output directory
// for state the program keeps on disk (policy registry, checkpoints). The
// caller removes it.
func (e *env) scratch(prefix string) (string, error) {
	base := filepath.Join(e.outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// report is the outcome of one workload run.
type report struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Timings carry, for every timed quantity, the sample count, the median
	// and the highest percentile with at least ten samples beyond it.
	Timings map[string]timing `json:"timings,omitempty"`
	// Repeats are the per-operation values behind a median.
	Repeats map[string][]float64 `json:"repeats,omitempty"`
	// Units are, per repeat, what every unit of the operation cost.
	Units  [][]unit `json:"units,omitempty"`
	Checks []string `json:"checks"`
	// zeroFilled names the per-layer metrics this run did not measure (layers
	// its workload never enters); they are reported as 0.
	zeroFilled []string
	WallS      float64 `json:"wall_s"`
	Trace      string  `json:"trace_file,omitempty"`
}

func newReport(name string, traced bool) *report {
	return &report{Workload: name, Traced: traced,
		Metrics: make(map[string]float64), Timings: make(map[string]timing),
		Repeats: make(map[string][]float64)}
}

func (r *report) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// alternate is the shape of a control-plane run: set-up and operation take
// turns until the operations have used the time budget. Every operation
// starts from a fresh set-up, and the set-ups are spread over the run, so
// setup_s (the fastest, like every time here: see floors) does not hinge on
// what the machine did in the run's first seconds, nor on the page faults the
// process's first set-up pays. It runs at least two operations and at least
// e.sz.setups set-ups, and only whole ones: an operation is never cut short,
// so the same work is timed on both sides of a comparison.
//
// teardown runs untimed after each turn and must drop every reference to what
// set-up and operation built: the live heap is read before each set-up and
// after each operation, and heap_live_mb is the median growth between the
// two. The set-up times and the spin before each operation go into the report
// as well.
func (e *env) alternate(r *report, setup, op func() error, teardown func()) (ops int, err error) {
	var setupS, spins, heapMB []float64
	var opS float64
	for turn := 0; ; turn++ {
		wantOp := ops < 2 || opS+opS/float64(ops) <= e.seconds
		if !wantOp && turn >= e.sz.setups {
			break
		}
		base := heapLive()
		t0 := time.Now()
		err := setup()
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil && wantOp {
			spins = append(spins, spin())
			t0 = time.Now()
			err = op()
			opS += time.Since(t0).Seconds()
			ops++
			heapMB = append(heapMB, heapGrowthMB(base))
		}
		teardown()
		if err != nil {
			return 0, err
		}
	}
	r.Metrics["setup_s"] = slices.Min(setupS)
	r.Metrics["heap_live_mb"] = median(heapMB)
	r.Repeats["setup_s"], r.Repeats["heap_live_mb"] = setupS, heapMB
	r.Timings["spin_ms"] = summarize(spins)
	return ops, nil
}

// unit is what one unit of work inside an operation — a policy, an agent
// step, a fleet round — used.
type unit struct {
	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms"`
}

// stopwatch reads wall and process-CPU time together.
type stopwatch struct {
	start time.Time
	cpu0  float64
}

func startWatch() stopwatch { return stopwatch{start: time.Now(), cpu0: cpuSeconds()} }

func (w stopwatch) stop() unit {
	return unit{WallMS: float64(time.Since(w.start)) / 1e6, CPUMS: (cpuSeconds() - w.cpu0) * 1e3}
}

// floors returns, for every unit of an operation, the least wall time and the
// least CPU time any repeat of the operation spent on it. The repeats do
// identical work (their output hashes are compared), and on a shared machine
// interference from other tenants only ever adds time, so the fastest repeat
// is the closest a run gets to what the program itself costs.
func floors(repeats [][]unit) (wallMS, cpuMS []float64) {
	wallMS, cpuMS = make([]float64, len(repeats[0])), make([]float64, len(repeats[0]))
	for i := range wallMS {
		wallMS[i], cpuMS[i] = repeats[0][i].WallMS, repeats[0][i].CPUMS
		for _, r := range repeats[1:] {
			wallMS[i], cpuMS[i] = min(wallMS[i], r[i].WallMS), min(cpuMS[i], r[i].CPUMS)
		}
	}
	return wallMS, cpuMS
}

// timings fills in the three time metrics of a control-plane workload from the
// per-unit costs of its repeats; one unit is opsPerUnit operations (a fleet
// round is one tenant-step per tenant). name labels the units in the report.
func (r *report) timings(name string, repeats [][]unit, opsPerUnit float64) {
	wallMS, cpuMS := floors(repeats)
	ops := opsPerUnit * float64(len(wallMS))
	r.Metrics["op_ms_p50"] = median(wallMS)
	r.Metrics["ops_per_s"] = ops / (sum(wallMS) / 1e3)
	r.Metrics["cpu_us_per_op"] = sum(cpuMS) * 1e3 / ops
	r.Timings[name] = summarize(wallMS)
	r.Units = repeats
	for _, rep := range repeats {
		var wall float64
		for _, u := range rep {
			wall += u.WallMS
		}
		r.Repeats["op_s"] = append(r.Repeats["op_s"], wall/1e3)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapLive is the live heap after two collections (the second one frees what
// the first one's finalizers released).
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowthMB is the live-heap growth since base in megabytes, floored at
// one kilobyte so the metric is never zero or negative.
func heapGrowthMB(base uint64) float64 {
	now := heapLive()
	if now <= base+1024 {
		return 1024.0 / 1e6
	}
	return float64(now-base) / 1e6
}

// spin times a fixed integer loop. It runs before every operation: a value
// far from the others marks a period in which the machine, not the program,
// was slow.
func spin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(start)) / 1e6
}

var spinSink uint64

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// counterTotal sums a counter family over all its label sets.
func counterTotal(snap telemetry.Snapshot, name string) float64 {
	var total int64
	for _, c := range snap.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return float64(total)
}

// histTotal sums a histogram family's observation sum and count over all its
// label sets.
func histTotal(snap telemetry.Snapshot, names ...string) (sum float64, count int64) {
	for _, h := range snap.Histograms {
		for _, name := range names {
			if h.Name == name {
				sum += h.Sum
				count += h.Count
			}
		}
	}
	return sum, count
}

// allEqual reports whether every string equals the first.
func allEqual(xs []string) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
