// Command racsim runs single scenarios of the simulated three-tier website:
// steady-state measurements under a chosen configuration, or one-parameter
// sweeps. It is the low-level inspection tool; cmd/racbench regenerates the
// paper's figures and cmd/racagent runs the RL agent.
//
// Examples:
//
//	racsim -mix ordering -clients 400 -level Level-1
//	racsim -sweep MaxClients -mix ordering -level Level-3
//	racsim -faults examples/faults_basic.json -intervals 30
//	racsim -scenario ramp               # replay a workload scenario
//	racsim -validate-scenarios examples/scenarios
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"github.com/rac-project/rac"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
	"github.com/rac-project/rac/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "racsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("racsim", flag.ContinueOnError)
	var (
		mixName  = fs.String("mix", "ordering", "workload mix: browsing|shopping|ordering")
		clients  = fs.Int("clients", 400, "emulated browser population")
		level    = fs.String("level", "Level-1", "app/db VM allocation: Level-1|Level-2|Level-3")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		warmup   = fs.Float64("warmup", 120, "warm-up seconds (virtual)")
		interval = fs.Float64("interval", 120, "measurement interval seconds (virtual)")
		sweep    = fs.String("sweep", "", "sweep one parameter by name (e.g. MaxClients)")
		cfgStr   = fs.String("config", "", "comma-separated configuration vector (Table 1 order)")
		telPath  = fs.String("telemetry", "", "dump a telemetry snapshot at exit to this file, or - for stdout")
		procs    = fs.Int("procs", 0, "worker goroutines for -sweep (0 = all CPUs, 1 = sequential; every point is an independent seeded run, so results are identical either way)")
		scenPath = fs.String("faults", "", "replay this JSON fault scenario against the fixed configuration, printing each interval as measured through the fault layer")
		nIvals   = fs.Int("intervals", 30, "measurement intervals to run with -faults")
		wlScen   = fs.String("scenario", "", "replay this workload scenario (library name or JSON file) against the fixed configuration, measuring every scenario interval on the simulator")
		valDir   = fs.String("validate-scenarios", "", "parse and compile every *.json workload scenario in this directory, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mix, err := tpcw.ParseMix(*mixName)
	if err != nil {
		return err
	}
	lvl, err := vmenv.ByName(*level)
	if err != nil {
		return err
	}
	space := config.Default()
	cfg := space.DefaultConfig()
	if *cfgStr != "" {
		parsed, err := config.ParseKey(*cfgStr)
		if err != nil {
			return err
		}
		if cfg, err = space.Clamp(parsed); err != nil {
			return err
		}
	}
	workload := tpcw.Workload{Mix: mix, Clients: *clients}

	tel := newSimTelemetry()
	var runErr error
	switch {
	case *valDir != "":
		runErr = validateScenarios(*valDir)
	case *wlScen != "":
		runErr = runScenario(space, cfg, lvl, *wlScen, *seed, *warmup, *interval, tel)
	case *scenPath != "":
		runErr = runFaults(space, cfg, workload, lvl, *scenPath, *nIvals, *seed, *warmup, *interval, tel)
	case *sweep != "":
		runErr = runSweep(space, cfg, workload, lvl, *sweep, *seed, *warmup, *interval, *procs, tel)
	default:
		runErr = runOnce(space, cfg, workload, lvl, *seed, *warmup, *interval, tel)
	}
	if runErr == nil && *telPath != "" {
		runErr = tel.dump(*telPath)
	}
	return runErr
}

// simTelemetry instruments the simulator runs so -telemetry snapshots record
// what was measured.
type simTelemetry struct {
	reg          *telemetry.Registry
	measurements *telemetry.Counter
	meanRT       *telemetry.Histogram
}

func newSimTelemetry() *simTelemetry {
	reg := telemetry.NewRegistry()
	return &simTelemetry{
		reg: reg,
		measurements: reg.Counter("racsim_measurements_total",
			"Simulated measurement intervals run.", nil),
		meanRT: reg.Histogram("racsim_mean_rt_seconds",
			"Mean response times measured across runs, in paper seconds.", nil, nil),
	}
}

// record folds one measurement into the instruments.
func (t *simTelemetry) record(st webtier.Stats) {
	t.measurements.Inc()
	t.meanRT.Observe(st.MeanRT)
}

// dump writes the registry snapshot as JSON to path, or stdout for "-".
func (t *simTelemetry) dump(path string) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(t.reg.Snapshot())
}

func measure(space *config.Space, cfg config.Config, w tpcw.Workload, lvl vmenv.Level,
	seed uint64, warmup, interval float64, tel *simTelemetry) (webtier.Stats, error) {

	params, err := webtier.ParamsFromConfig(space, cfg)
	if err != nil {
		return webtier.Stats{}, err
	}
	model, err := webtier.New(webtier.Options{
		Params:   &params,
		Workload: w,
		AppLevel: lvl,
		Seed:     seed,
	})
	if err != nil {
		return webtier.Stats{}, err
	}
	model.Warmup(warmup)
	st, err := model.Run(interval)
	if err == nil {
		tel.record(st)
	}
	return st, err
}

func runOnce(space *config.Space, cfg config.Config, w tpcw.Workload, lvl vmenv.Level,
	seed uint64, warmup, interval float64, tel *simTelemetry) error {

	st, err := measure(space, cfg, w, lvl, seed, warmup, interval, tel)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s on %s\n", w, lvl)
	fmt.Printf("config:   %s\n", cfg.Format(space))
	fmt.Printf("meanRT %.3fs  p95 %.3fs  X %.1f req/s  inflight %.1f  wait %.1f  util %.2f  io %.2f  workers %.0f  threads %.0f\n",
		st.MeanRT, st.P95RT, st.Throughput, st.MeanInFlight, st.MeanWaiting,
		st.AppVMUtil, st.IOFactor, st.WebWorkers, st.AppThreads)
	return nil
}

// runFaults replays a fault scenario against the simulated system at a fixed
// configuration — no agent, no tuning — so a scenario's raw effect on the
// measurements can be inspected interval by interval before it is handed to
// racagent or racbench.
func runFaults(space *config.Space, cfg config.Config, w tpcw.Workload, lvl vmenv.Level,
	scenPath string, intervals int, seed uint64, warmup, interval float64, tel *simTelemetry) error {

	built, err := rac.BuildSystem(rac.SystemSpec{
		Backend:        "sim",
		Space:          space,
		Initial:        cfg,
		Context:        system.Context{Name: "racsim", Workload: w, Level: lvl},
		Seed:           seed,
		SettleSeconds:  warmup,
		MeasureSeconds: interval,
		FaultsPath:     scenPath,
		Telemetry:      tel.reg,
	})
	if err != nil {
		return err
	}
	sys := built.Faulty
	sc := sys.Scenario()

	name := sc.Name
	if name == "" {
		name = "unnamed"
	}
	fmt.Printf("scenario: %q (%d rules) on %s on %s, config %s\n\n", name, len(sc.Rules), w, lvl, cfg.Format(space))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "interval\tmeanRT(s)\tp95(s)\tX(req/s)\tcompleted\terrors\tfaults")
	for i := 1; i <= intervals; i++ {
		before := len(sys.Injected())
		m, err := sys.Measure(context.Background())
		fired := ""
		for _, inj := range sys.Injected()[before:] {
			if fired != "" {
				fired += ", "
			}
			fired += string(inj.Kind)
		}
		if err != nil {
			fmt.Fprintf(tw, "%d\t-\t-\t-\t-\t-\t%s (measure failed: %v)\n", i, fired, err)
			continue
		}
		tel.measurements.Inc()
		tel.meanRT.Observe(m.MeanRT)
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.1f\t%d\t%d\t%s\n",
			i, m.MeanRT, m.P95RT, m.Throughput, m.Completed, m.Errors, fired)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n%d faults injected over %d intervals\n", len(sys.Injected()), intervals)
	return nil
}

// runScenario replays a workload scenario against the simulated system at a
// fixed configuration — no agent, no tuning — measuring one steady-state
// interval per scenario window so a scenario's raw load shape can be
// inspected before it is handed to racagent or racbench. Each window is an
// independent seeded run, so the table is reproducible row by row.
func runScenario(space *config.Space, cfg config.Config, lvl vmenv.Level,
	arg string, seed uint64, warmup, interval float64, tel *simTelemetry) error {

	sc, err := workload.Resolve(arg)
	if err != nil {
		return err
	}
	sched, err := workload.Compile(sc)
	if err != nil {
		return err
	}
	seq := workload.NewSequencer(sched, sc.Interval())
	seq.SetTelemetry(tel.reg)

	fmt.Printf("scenario: %q (%d phases, %.0fs, %d intervals of %.0fs) on %s, config %s\n\n",
		sc.Name, len(sc.Phases), sched.Duration(), seq.Len(), seq.IntervalSeconds(),
		lvl, cfg.Format(space))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "interval\tphase\tmix\tclients\toffered\tmeanRT(s)\tp95(s)\tX(req/s)")
	for i := 0; i < seq.Len(); i++ {
		iv := seq.Observe(i)
		st, err := measure(space, cfg, iv.Workload, lvl, seed+uint64(i), warmup, interval, tel)
		if err != nil {
			return fmt.Errorf("interval %d: %w", i+1, err)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%.1f\t%.3f\t%.3f\t%.1f\n",
			i+1, iv.PhaseName, iv.Workload.Mix, iv.Workload.Clients,
			iv.OfferedRate, st.MeanRT, st.P95RT, st.Throughput)
	}
	return tw.Flush()
}

// validateScenarios loads and compiles every *.json scenario in dir — the
// workload-smoke gate that keeps the shipped scenario files honest.
func validateScenarios(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.json scenarios in %s", dir)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "file\tscenario\tphases\tduration(s)\tintervals")
	for _, p := range paths {
		sc, err := workload.LoadFile(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		sched, err := workload.Compile(sc)
		if err != nil {
			return fmt.Errorf("%s: compile: %w", p, err)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%d\n", filepath.Base(p), sc.Name,
			len(sc.Phases), sched.Duration(), workload.NewSequencer(sched, sc.Interval()).Len())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d scenarios ok\n", len(paths))
	return nil
}

func runSweep(space *config.Space, cfg config.Config, w tpcw.Workload, lvl vmenv.Level,
	paramName string, seed uint64, warmup, interval float64, procs int, tel *simTelemetry) error {

	var def config.Def
	found := false
	idx := 0
	for i, d := range space.Defs() {
		if d.Name == paramName {
			def, found, idx = d, true, i
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown parameter %q", paramName)
	}

	// Every sweep point simulates an independent model from the same seed,
	// so the pool changes wall-clock only; rows print in lattice order.
	stats, err := parallel.Map(parallel.Options{Procs: procs, Telemetry: tel.reg},
		def.Levels(), func(lvlIdx int) (webtier.Stats, error) {
			c := cfg.Clone()
			c[idx] = def.Value(lvlIdx)
			return measure(space, c, w, lvl, seed, warmup, interval, tel)
		})
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tmeanRT(s)\tp95(s)\tX(req/s)\tinflight\twait\tutil\tio\n", def.Name)
	for lvlIdx, st := range stats {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\n",
			def.Value(lvlIdx), st.MeanRT, st.P95RT, st.Throughput, st.MeanInFlight,
			st.MeanWaiting, st.AppVMUtil, st.IOFactor)
	}
	return tw.Flush()
}
