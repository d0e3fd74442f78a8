// Command racbench regenerates the paper's evaluation figures on the
// simulated testbed.
//
// Examples:
//
//	racbench -fig fig5            # one figure, rendered as a table
//	racbench -all -csv out/       # all figures, also written as CSV
//	racbench -all -procs 4        # independent figures generated in parallel
//	racbench -fig fig2 -quick     # fast low-fidelity pass
//	racbench -faults examples/faults_basic.json -quick
//	                              # recovery-under-faults figure
//	racbench -fig load -quick     # open-loop data-plane throughput figure
//	                              # (real HTTP over wall clock; not in -all)
//	racbench -fig diurnal -quick  # adaptation under the built-in 24 h
//	                              # diurnal workload scenario (not in -all)
//	racbench -scenario examples/scenarios/flashcrowd.json -quick
//	                              # same figure for any scenario file
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/rac-project/rac/internal/bench"
	"github.com/rac-project/rac/internal/faults"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "racbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("racbench", flag.ContinueOnError)
	var (
		figID  = fs.String("fig", "", "figure to regenerate (fig1..fig10, or load for the data-plane throughput figure)")
		all    = fs.Bool("all", false, "regenerate every figure")
		seed   = fs.Uint64("seed", 1, "experiment seed")
		quick  = fs.Bool("quick", false, "low-fidelity fast mode")
		simPol = fs.Bool("simpolicy", false, "train initial policies by sampling the simulator (slow) instead of the analytic surface")
		csvDir = fs.String("csv", "", "also write each figure as CSV into this directory")
		procs  = fs.Int("procs", 0, "worker goroutines for sweeps and figure generation (0 = all CPUs, 1 = sequential; output is identical either way)")
		scen   = fs.String("faults", "", "render the recovery-under-faults figure for this JSON scenario instead of a paper figure")
		wlScen = fs.String("scenario", "", "render the workload-adaptation figure for this workload scenario: a library name (diurnal|flashcrowd|mixdrift|ramp|steady) or a JSON file (see examples/scenarios/); -fig diurnal is shorthand for -scenario diurnal")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && *figID == "" && *scen == "" && *wlScen == "" {
		return fmt.Errorf("pass -fig <id>, -all, -faults <scenario> or -scenario <workload> (ids: %v)", bench.FigureIDs())
	}

	h := bench.New(bench.Options{
		Seed:        *seed,
		Quick:       *quick,
		SimSampling: *simPol,
		Procs:       *procs,
	})

	if *scen != "" {
		sc, err := faults.LoadFile(*scen)
		if err != nil {
			return err
		}
		start := time.Now()
		fig, err := h.FigFaults(sc)
		if err != nil {
			return err
		}
		if err := fig.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("  (%s in %.1fs)\n", fig.ID, time.Since(start).Seconds())
		if *csvDir != "" {
			return writeCSV(*csvDir, fig)
		}
		return nil
	}
	if *wlScen != "" {
		sc, err := workload.Resolve(*wlScen)
		if err != nil {
			return err
		}
		start := time.Now()
		fig, err := h.FigWorkload(sc)
		if err != nil {
			return err
		}
		if err := fig.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("  (%s in %.1fs)\n", fig.ID, time.Since(start).Seconds())
		if *csvDir != "" {
			return writeCSV(*csvDir, fig)
		}
		return nil
	}
	gens := h.Figures()

	ids := bench.FigureIDs()
	if !*all {
		if gens[*figID] == nil {
			return fmt.Errorf("unknown figure %q (ids: %v)", *figID, ids)
		}
		ids = []string{*figID}
	}

	// Figures are independent experiments; generate them on the pool and
	// render in paper order once all are in. Policy trainings shared between
	// figures are deduped by the harness cache.
	type generated struct {
		fig  *bench.Figure
		secs float64
	}
	results, err := parallel.Map(h.Parallel(), len(ids), func(i int) (generated, error) {
		start := time.Now()
		fig, err := gens[ids[i]]()
		if err != nil {
			return generated{}, fmt.Errorf("%s: %w", ids[i], err)
		}
		return generated{fig: fig, secs: time.Since(start).Seconds()}, nil
	})
	if err != nil {
		return err
	}

	for i, res := range results {
		if err := res.fig.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("  (%s in %.1fs)\n\n", ids[i], res.secs)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res.fig); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(dir string, fig *bench.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fig.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fig.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
