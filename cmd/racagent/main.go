// Command racagent demonstrates the full pipeline against live HTTP traffic:
// it starts the in-process three-tier bookstore, aims a TPC-W-style load
// generator at it, and runs the RAC agent (or a baseline) for a number of
// iterations, printing every step. The time scale is compressed 100×, so an
// iteration's "5-minute" measurement interval takes ~1.5 s of wall clock.
//
// Examples:
//
//	racagent -iters 20
//	racagent -agent trial-and-error -clients 80 -mix ordering
//	racagent -level Level-3 -maxclients 50
//	racagent -faults examples/faults_basic.json -quick
//	racagent -snapshot agent.json   # ^C finishes the interval, then saves
//
// SIGINT/SIGTERM do not kill the run mid-measurement: the agent finishes its
// current interval, the summary is printed, and with -snapshot the learned
// state (policy name, Q-table, both RNG streams) is saved so a later run —
// or a fleet tenant — can resume from it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/rac-project/rac"
	"github.com/rac-project/rac/internal/atomicfile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "racagent:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("racagent", flag.ContinueOnError)
	var (
		iters      = fs.Int("iters", 20, "tuning iterations")
		clients    = fs.Int("clients", 60, "emulated browsers")
		mixName    = fs.String("mix", "shopping", "traffic mix")
		levelName  = fs.String("level", "Level-2", "app/db VM level")
		agentKind  = fs.String("agent", "rac", "agent: rac|static|trial-and-error|hillclimb")
		seed       = fs.Uint64("seed", 1, "seed")
		interval   = fs.Duration("interval", 1500*time.Millisecond, "wall-clock measurement interval")
		maxClients = fs.Int("maxclients", 50, "starting MaxClients (a poor default shows tuning)")
		telemetry  = fs.String("telemetry", "", "dump a telemetry snapshot (metrics + decision trace) at exit to this file, or - for stdout")
		traceCap   = fs.Int("tracecap", 512, "decision-trace ring capacity")
		procs      = fs.Int("procs", 0, "cap the OS threads running the in-process server, load generator and agent (0 = all CPUs)")
		faultsPath = fs.String("faults", "", "inject faults from this JSON scenario (see examples/faults_basic.json); enables the agent's resilience policy")
		quick      = fs.Bool("quick", false, "smoke-test sizing: 8 iterations, 300ms intervals, 20 browsers")
		snapshot   = fs.String("snapshot", "", "save the final agent state (policy name, samples and learned values) to this file at exit (-agent rac only)")
		openLoop   = fs.Bool("open", false, "open-loop load: offer a fixed arrival schedule instead of emulated browsers (defaults -rate to 30)")
		rate       = fs.Float64("rate", 0, "open-loop offered load in paper-scale req/s (>0 implies -open; 0 keeps the closed loop)")
		scenario   = fs.String("scenario", "", "drive a time-varying workload scenario: a library name (diurnal|flashcrowd|mixdrift|ramp|steady) or a JSON file (see examples/scenarios/)")
		arrival    = fs.String("arrival", "", "open-loop arrival process: poisson (default) or uniform")
		inflight   = fs.Int("inflight", 0, "open-loop bound on concurrently outstanding requests (0 = default)")
		admission  = fs.Bool("admission", false, "tune the SLO admission gate too: extend the lattice with AdmitConcurrency and AdmitQueue so Q-learning sets the gate's caps alongside the web-tier knobs")
		admitConc  = fs.Int("admitconc", 0, "starting AdmitConcurrency (requires -admission; 0 keeps the space default)")
		admitQueue = fs.Int("admitqueue", 0, "starting AdmitQueue (requires -admission; 0 keeps the space default)")
		capacityOn = fs.Bool("capacity", false, "make the VM level an actuator: extend the lattice with CapacityLevel, wrap the stack in the elastic capacity decorator, and fast-scale on saturation verdicts between retrains")
		capCost    = fs.Float64("capacity-cost", 0, "price capacity in the agent's reward, per VM-level·interval (requires -capacity; 0 leaves the level unpriced)")
		capDelay   = fs.Int("capacity-delay", 0, "scale-up provisioning delay in measurement intervals; scale-downs apply next interval (requires -capacity)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A scenario replaces the fixed -rate: in the open loop the compiled
	// schedule paces the arrivals itself, in the closed loop a sequencer
	// re-applies each interval's workload before the agent steps.
	var sched *rac.WorkloadSchedule
	if *scenario != "" {
		sc, err := rac.ResolveWorkloadScenario(*scenario)
		if err != nil {
			return err
		}
		if *rate > 0 {
			return fmt.Errorf("-scenario drives the offered load; drop -rate")
		}
		sched, err = rac.CompileWorkload(sc)
		if err != nil {
			return err
		}
	}
	if *openLoop && *rate == 0 && sched == nil {
		*rate = 30
	}
	if *snapshot != "" && *agentKind != "rac" {
		return fmt.Errorf("-snapshot requires -agent rac (got %q)", *agentKind)
	}
	if *quick {
		*iters = 8
		*interval = 300 * time.Millisecond
		*clients = 20
	}
	if *procs > 0 {
		// Unlike the offline sweeps (racbench/racsim -procs), the live demo
		// is a single concurrent stack: the knob here bounds the scheduler,
		// trading tuning wall-clock for leaving cores to co-located work.
		runtime.GOMAXPROCS(*procs)
	}

	mix, err := parseMix(*mixName)
	if err != nil {
		return err
	}
	level, err := parseLevel(*levelName)
	if err != nil {
		return err
	}

	if (*admitConc > 0 || *admitQueue > 0) && !*admission {
		return fmt.Errorf("-admitconc/-admitqueue require -admission")
	}
	if (*capCost > 0 || *capDelay > 0) && !*capacityOn {
		return fmt.Errorf("-capacity-cost/-capacity-delay require -capacity")
	}
	if *capCost < 0 || *capDelay < 0 {
		return fmt.Errorf("-capacity-cost/-capacity-delay must be non-negative")
	}
	if *capacityOn && *admission {
		return fmt.Errorf("-capacity and -admission extend the lattice differently; pick one")
	}
	space := rac.DefaultSpace()
	if *admission {
		space = rac.AdmissionSpace()
	}
	if *capacityOn {
		space = rac.CapacitySpace()
	}
	start := space.DefaultConfig().With(space, rac.MaxClients, *maxClients)
	if *admitConc > 0 {
		start = start.With(space, rac.AdmitConcurrency, *admitConc)
	}
	if *admitQueue > 0 {
		start = start.With(space, rac.AdmitQueue, *admitQueue)
	}
	if *capacityOn {
		// Start the lattice's CapacityLevel at the -level the stack boots
		// with, so the agent's first step is not an implicit scale request.
		start = start.With(space, rac.CapacityLevel, rac.LevelOrdinal(level))
	}
	start, err = space.Clamp(start)
	if err != nil {
		return err
	}
	trace := rac.NewTrace(*traceCap)
	workload := rac.Workload{Mix: mix, Clients: *clients}
	load := rac.LoadOptions{
		Rate:           *rate,
		ArrivalProcess: rac.LoadArrival(*arrival),
		MaxInFlight:    *inflight,
	}
	// Each wall-clock interval covers interval×TimeScale scenario seconds;
	// the sequencer walks the schedule at that pace, mirroring the open-loop
	// driver's own window cursor.
	var seq *rac.WorkloadSequencer
	if sched != nil {
		seq = rac.NewWorkloadSequencer(sched, interval.Seconds()*rac.TimeScale)
		workload = seq.At(0).Workload
		if *openLoop {
			load.Schedule = sched
		}
	}
	built, err := rac.BuildSystem(rac.SystemSpec{
		Backend:          "live",
		Space:            space,
		Initial:          start,
		Context:          rac.Context{Name: "racagent", Workload: workload, Level: level},
		Seed:             *seed,
		Interval:         *interval,
		Load:             load,
		Trace:            trace,
		Capacity:         *capacityOn,
		CapacityDelay:    *capDelay,
		CapacityAnalyzer: rac.DefaultCapacityConfig(rac.DefaultOptions().SLASeconds),
		FaultsPath:       *faultsPath,
	})
	if err != nil {
		return err
	}
	server, sys, faulty := built.Server, built.System, built.Faulty
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = server.Shutdown(ctx)
	}()
	switch {
	case sched != nil:
		loop := "closed loop"
		if *openLoop {
			loop = "open loop"
		}
		seq.SetTelemetry(server.Telemetry())
		fmt.Printf("bookstore on http://%s  (scenario %q, %s, %s)\n",
			built.Addr, sched.Scenario().Name, loop, level)
	case *rate > 0:
		fmt.Printf("bookstore on http://%s  (%s, open loop %.0f req/s %s, %s)\n",
			built.Addr, mix, *rate, built.Driver.Options().ArrivalProcess, level)
	default:
		fmt.Printf("bookstore on http://%s  (%s, %d browsers, %s)\n", built.Addr, mix, *clients, level)
	}
	fmt.Printf("observability: http://%s/metrics  http://%s/admin/trace\n", built.Addr, built.Addr)

	// With -faults the live stack is wrapped in the fault-injection layer and
	// the RAC agent runs its resilience policy (retry with real backoff,
	// invalid-interval rejection, rollback-to-safe).
	agentOpts := rac.AgentOptions{
		Seed:      *seed,
		Telemetry: server.Telemetry(),
		Trace:     trace,
	}
	if faulty != nil {
		o := rac.DefaultOptions()
		o.Resilience = rac.DefaultResilience()
		o.Resilience.RetryBackoff = 100 * time.Millisecond
		agentOpts.Options = o
		agentOpts.Sleep = time.Sleep
		sc := faulty.Scenario()
		name := sc.Name
		if name == "" {
			name = "unnamed"
		}
		fmt.Printf("fault injection: scenario %q (%d rules), resilience enabled\n", name, len(sc.Rules))
	}
	baselineOpts := rac.DefaultOptions()
	if *capCost > 0 {
		// Price the VM level into every agent's reward so holding peak
		// capacity is never a free lunch.
		baselineOpts.CapacityCost = *capCost
		o := agentOpts.Options
		if o == (rac.Options{}) {
			o = rac.DefaultOptions()
		}
		o.CapacityCost = *capCost
		agentOpts.Options = o
	}
	if *capacityOn {
		fmt.Printf("capacity: elastic level control from %s (ordinal %d), provision delay %d interval(s), reward price %g/level·interval\n",
			level, rac.LevelOrdinal(level), *capDelay, *capCost)
	}

	var tuner rac.Tuner
	switch *agentKind {
	case "rac":
		tuner, err = rac.NewAgent(sys, agentOpts)
	case "static":
		tuner, err = rac.NewStaticAgent(sys, baselineOpts)
	case "trial-and-error":
		tuner, err = rac.NewTrialAndErrorAgent(sys, baselineOpts)
	case "hillclimb":
		tuner, err = rac.NewHillClimbAgent(sys, baselineOpts)
	default:
		return fmt.Errorf("unknown agent %q", *agentKind)
	}
	if err != nil {
		return err
	}

	// A termination signal never cuts a measurement interval in half: it is
	// only checked between Step calls, so the in-flight interval completes,
	// the summary prints, and -snapshot still captures the learned state.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	var retries, invalids, degradeds, rollbacks int
	if sched != nil {
		fmt.Println("\niter   rt(paper-s)  X(req/s)  offered  phase     action")
	} else {
		fmt.Println("\niter   rt(paper-s)  X(req/s)  action")
	}
steps:
	for i := 0; i < *iters; i++ {
		select {
		case s := <-sig:
			fmt.Printf("racagent: %s — stopping after the finished interval\n", s)
			break steps
		default:
		}
		// With a scenario active the offered load is recomputed per interval
		// (the fixed -rate no longer describes it) and recorded in the
		// decision trace before the step, so rollbacks and switches can be
		// correlated with the load that provoked them. The closed loop also
		// re-applies the interval's workload; the open loop paces itself from
		// the schedule.
		var iv rac.WorkloadInterval
		if sched != nil {
			iv = seq.Observe(i)
			if !*openLoop {
				if err := built.Live.SetWorkload(iv.Workload); err != nil {
					return fmt.Errorf("interval %d workload: %w", i, err)
				}
			}
			trace.Add(rac.TraceEvent{
				Kind:        rac.TraceKindWorkload,
				Iteration:   i + 1,
				OfferedRate: iv.OfferedRate,
				Detail:      iv.PhaseName,
			})
		}
		step, err := tuner.Step(context.Background())
		if err != nil {
			return err
		}
		marks := ""
		if step.Attempts > 1 {
			marks += fmt.Sprintf("  [%d attempts]", step.Attempts)
			retries += step.Attempts - 1
		}
		if step.Degraded {
			degradeds++
		}
		if step.Invalid {
			marks += fmt.Sprintf("  [invalid: %s]", step.InvalidReason)
			invalids++
		}
		if step.RolledBack {
			marks += "  [rolled back]"
			rollbacks++
		}
		if sched != nil {
			fmt.Printf("%4d  %11.3f  %8.1f  %7.1f  %-8s  %s%s\n",
				step.Iteration, step.MeanRT, step.Throughput, iv.OfferedRate, iv.PhaseName,
				step.Action.Describe(space), marks)
		} else {
			fmt.Printf("%4d  %11.3f  %8.1f  %s%s\n",
				step.Iteration, step.MeanRT, step.Throughput, step.Action.Describe(space), marks)
		}
	}
	st := server.Stats()
	fmt.Printf("\nserver stats: served=%d rejected=%d sessions=%d\n",
		st.Served, st.Rejected, st.Sessions)
	if *admission {
		fmt.Printf("admission gate: admitted=%d rejected=%d scale=%.2f regime=%s\n",
			st.GateAdmitted, st.GateRejected, st.GateScale, st.GateRegime)
	}
	if c := built.Capacity; c != nil {
		fmt.Printf("capacity: level=%s scale-ups=%d scale-downs=%d holds=%d cost=%d level·intervals\n",
			c.AppLevel(), c.ScaleUps(), c.ScaleDowns(), c.Holds(), c.TotalCost())
	}
	if faulty != nil {
		byKind := map[rac.FaultKind]int{}
		for _, inj := range faulty.Injected() {
			byKind[inj.Kind]++
		}
		fmt.Printf("faults injected: %d total", len(faulty.Injected()))
		for _, k := range rac.FaultKinds() {
			if byKind[k] > 0 {
				fmt.Printf("  %s=%d", k, byKind[k])
			}
		}
		fmt.Println()
		fmt.Printf("recovery: retries=%d invalid-intervals=%d degraded-intervals=%d rollbacks=%d\n",
			retries, invalids, degradeds, rollbacks)
	}
	if *telemetry != "" {
		if err := dumpTelemetry(*telemetry, server.Telemetry(), trace); err != nil {
			return fmt.Errorf("telemetry dump: %w", err)
		}
	}
	if *snapshot != "" {
		if err := saveSnapshot(*snapshot, tuner); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fmt.Printf("agent state saved to %s\n", *snapshot)
	}
	return nil
}

// saveSnapshot serializes the RAC agent's learned state (policy name,
// Q-table, RNG streams, retraining window) so a later run can resume it.
func saveSnapshot(path string, tuner rac.Tuner) error {
	a, ok := tuner.(*rac.Agent)
	if !ok {
		return fmt.Errorf("agent kind %T has no serializable state", tuner)
	}
	st, err := a.ExportState()
	if err != nil {
		return err
	}
	return atomicfile.Replace(path, st.Save)
}

// dumpTelemetry writes the end-of-run snapshot (registry state plus the full
// decision trace) as JSON to path, or stdout for "-".
func dumpTelemetry(path string, reg *rac.Telemetry, trace *rac.Trace) error {
	dump := struct {
		Metrics rac.TelemetrySnapshot `json:"metrics"`
		Trace   []rac.TraceEvent      `json:"trace"`
	}{Metrics: reg.Snapshot(), Trace: trace.Snapshot()}

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
	return enc.Encode(dump)
}

func parseMix(name string) (rac.Mix, error) {
	for _, m := range []rac.Mix{rac.Browsing, rac.Shopping, rac.Ordering} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mix %q", name)
}

func parseLevel(name string) (rac.Level, error) {
	for _, l := range []rac.Level{rac.Level1, rac.Level2, rac.Level3} {
		if l.Name == name {
			return l, nil
		}
	}
	return rac.Level{}, fmt.Errorf("unknown level %q", name)
}
