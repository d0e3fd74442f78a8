// Command benchmark is the repository's performance ledger: one command, four
// workloads, end-to-end metrics a user of the system would see and per-layer
// metrics that say where the time went. BENCHMARK.json at the repository root
// declares it; README.md in this directory explains every number.
//
//	go run ./benchmark -workload fleet-steady -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload all -seed 1 -out benchmark/out/result.json
//	go run ./benchmark -repeatability
//
// Every layer is measured from outside: timing decorators around
// system.System and core.Tuner, the fleet's NewSystem hook, the telemetry
// counters the program already keeps, and direct probes of public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// outDir is where traces, scratch state and results go, relative to the
// repository root the command is run from. It is git-ignored.
const outDir = "benchmark/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         int
	out           string
	repeatability bool
	describe      bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "train-cold, fig05-sim, fleet-steady, live-ladder, or all (both passes of each)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every RNG the benchmark owns")
	fs.Float64Var(&o.seconds, "seconds", 20, "time budget of the measured part of one run; whole operations only")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.out, "out", "", "also write the full result as JSON to this file")
	fs.BoolVar(&o.repeatability, "repeatability", false, "run the untraced suite twice and compare the two against the bounds")
	fs.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json as the catalogue in this package defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.describe {
		describe(stdout)
		return 0
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	res := &result{P: procs, Seed: o.seed, Seconds: o.seconds, GoVersion: runtime.Version(), Commit: commit()}
	fmt.Fprintf(stdout, "P=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		procs, runtime.GOMAXPROCS(0), res.GoVersion, res.Commit, o.seed, o.seconds)

	var err error
	var single *report // a single-workload run ends with the pipeline's line
	switch {
	case o.repeatability:
		err = repeatability(&o, res, procs, stdout)
	case o.workload == "all":
		for _, w := range workloads {
			for trace := 0; trace <= 1 && err == nil; trace++ {
				var rep *report
				if rep, err = runOne(&o, w.Name, trace, procs); err == nil {
					res.Reports = append(res.Reports, rep)
					printReport(stdout, rep)
				}
			}
		}
	default:
		if single, err = runOne(&o, o.workload, o.trace, procs); err == nil {
			res.Reports = append(res.Reports, single)
			printReport(stdout, single)
		}
	}
	if err != nil {
		// A failed check prints no metrics: a number from a run that computed
		// the wrong thing is worse than no number.
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if single != nil {
		printContractLine(stdout, single)
	}
	return 0
}

// result is the -out file: everything a pipeline needs to diff two commits
// without scraping stdout.
type result struct {
	P         int       `json:"p"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	GoVersion string    `json:"go_version"`
	Commit    string    `json:"commit"`
	Reports   []*report `json:"reports"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runOne runs one pass of one workload at the full sizes and checks that it
// reported exactly the metrics the catalogue promises for that pass.
func runOne(o *options, name string, trace, procs int) (*report, error) {
	e := &env{seed: o.seed, seconds: o.seconds, procs: procs, outDir: outDir, sz: fullSizes()}
	return runPass(e, name, trace == 1)
}

func runPass(e *env, name string, traced bool) (*report, error) {
	w := workloadByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		e.tr = newTracer()
	}
	start := time.Now()
	rep, err := w.run(e)
	if err != nil {
		return nil, err
	}
	catalogue := endToEnd
	if traced {
		catalogue = perLayer
		if err := runProbes(e, rep.Metrics); err != nil {
			return nil, err
		}
		spans := e.tr.snapshot()
		rep.Metrics["benchmark.trace_overhead_share"] =
			float64(len(spans)) * rep.Metrics["benchmark.span_cost_ns"] / (rep.Metrics["benchmark.traced_op_ms"] * 1e6)
		if rep.Trace, err = writeTrace(e.outDir, name, e.seed, e.procs, spans); err != nil {
			return nil, err
		}
	}
	if rep.zeroFilled, err = conform(rep.Metrics, catalogue, traced); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}

// conform checks the reported metrics against the catalogue. A traced run may
// leave out the metrics of layers its workload never enters; they read 0.
// Anything else — a name the catalogue lacks, an end-to-end metric missing or
// not positive — is a bug in the benchmark.
func conform(got map[string]float64, catalogue []metric, fillZero bool) (filled []string, err error) {
	known := make(map[string]bool, len(catalogue))
	for _, m := range catalogue {
		known[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok && fillZero:
			got[m.Name] = 0
			filled = append(filled, m.Name)
		case !ok:
			return nil, fmt.Errorf("metric %s was not reported", m.Name)
		case !fillZero && !(v > 0):
			return nil, fmt.Errorf("end-to-end metric %s = %v is not positive", m.Name, v)
		}
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return filled, nil
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

func printReport(w io.Writer, rep *report) {
	pass := "untraced, end to end"
	if rep.Traced {
		pass = "traced, per layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) wall %.1f s  ops_attempted=%d ops_failed=%d\n",
		rep.Workload, pass, rep.WallS, rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "  check ok: %s\n", c)
	}
	catalogue := endToEnd
	if rep.Traced {
		catalogue = perLayer
	}
	for _, m := range catalogue {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, rep.Metrics[m.Name], m.Unit)
	}
	for _, name := range keys(rep.Timings) {
		t := rep.Timings[name]
		fmt.Fprintf(w, "  timing %-22s n=%-6d p50=%.4g p%g=%.4g\n", name, t.N, t.P50, t.TailP*100, t.Tail)
	}
	for _, name := range keys(rep.Repeats) {
		q1, q3 := quartiles(rep.Repeats[name])
		fmt.Fprintf(w, "  repeats %-21s %v  median=%.6g q1=%.6g q3=%.6g\n", name, rep.Repeats[name], median(rep.Repeats[name]), q1, q3)
	}
	if rep.Trace != "" {
		fmt.Fprintf(w, "  spans written to %s\n", rep.Trace)
	}
}

// contractLine is the last line of a single-workload run's standard output,
// in the form the acceptance pipeline reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(w io.Writer, rep *report) {
	line := contractLine{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]contractValue, len(rep.Metrics))}
	for name, v := range rep.Metrics {
		line.Metrics[name] = contractValue{Value: v, Unit: unitOf(name)}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", blob)
}

// repeatability runs the untraced suite twice back to back (A B C D A B C D,
// so a slow period lands on every workload) and holds the second set against
// the first with the benchmark's own bounds. It is what a reviewer runs to
// re-measure the noise before trusting a claim.
func repeatability(o *options, res *result, procs int, w io.Writer) error {
	sets := [2]map[string]*report{{}, {}}
	for set := range sets {
		for _, wl := range workloads {
			rep, err := runOne(o, wl.Name, 0, procs)
			if err != nil {
				return err
			}
			sets[set][wl.Name] = rep
			res.Reports = append(res.Reports, rep)
			fmt.Fprintf(w, "set %d %-13s done in %.1f s\n", set+1, wl.Name, rep.WallS)
		}
	}
	fmt.Fprintf(w, "\n%-14s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	unresolved := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][wl.Name].Metrics[m.Name], sets[1][wl.Name].Metrics[m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			switch {
			case exact(wl.Name, m.Name) && a != b:
				verdict = "unresolved (must repeat exactly)"
			case worse > m.Bound:
				verdict = "unresolved"
			}
			if verdict != "ok" {
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wl.Name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric × workload pairs did not repeat within their bound", unresolved)
	}
	return nil
}

// exact reports whether the metric is computed from the program's outputs
// alone on that workload, so that two runs of one seed must agree to the bit.
func exact(workload, metric string) bool {
	return workload != "live-ladder" && (metric == "rt_over_sla" || metric == "slo_share")
}

// describe prints BENCHMARK.json from the catalogue.
func describe(w io.Writer) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, x := range workloads {
		doc.Workloads = append(doc.Workloads, wl{x.Name, x.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and finite floats: cannot fail
	}
	fmt.Fprintf(w, "%s\n", blob)
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the acceptance
// pipeline passes, and the default.
const runSeconds = 20
