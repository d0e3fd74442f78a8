// Command racpolicy manages offline initialization policies (paper
// Algorithm 2): it trains a policy for a system context and saves it as
// JSON, or inspects a saved policy. Training against the simulator mirrors
// the paper's "more than ten hours" of offline data collection (compressed
// to minutes of wall clock); the analytic backend trains in seconds.
//
// Examples:
//
//	racpolicy -train context-3 -o ctx3.policy.json
//	racpolicy -train context-1 -backend sim -coarse 3 -o ctx1.policy.json
//	racpolicy -inspect ctx3.policy.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/rac-project/rac/internal/atomicfile"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/system"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "racpolicy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("racpolicy", flag.ContinueOnError)
	var (
		train   = fs.String("train", "", "train a policy for a context (context-1..context-6)")
		out     = fs.String("o", "", "output file for -train (default <context>.policy.json)")
		backend = fs.String("backend", "analytic", "sampling backend: analytic|sim")
		coarse  = fs.Int("coarse", 4, "coarse sampling levels per parameter group")
		seed    = fs.Uint64("seed", 1, "training seed")
		procs   = fs.Int("procs", 0, "worker goroutines sampling the coarse lattice (0 = all CPUs, 1 = sequential; the saved policy is identical either way)")
		inspect = fs.String("inspect", "", "inspect a saved policy file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *train != "":
		return trainPolicy(*train, *out, *backend, *coarse, *seed, *procs)
	case *inspect != "":
		return inspectPolicy(*inspect)
	default:
		return fmt.Errorf("pass -train <context> or -inspect <file>")
	}
}

func trainPolicy(ctxName, out, backend string, coarse int, seed uint64, procs int) error {
	ctx, err := system.ContextByName(ctxName)
	if err != nil {
		return err
	}
	space := config.Default()

	// The simulator backend builds a fresh system per sampled configuration
	// so the coarse sweep can fan out, deriving its seed from the sample's
	// pre-split RNG stream; the analytic surface is pure. Either way the saved
	// policy is independent of -procs and of sampling order.
	if backend != "analytic" && backend != "sim" {
		return fmt.Errorf("unknown backend %q", backend)
	}
	rec := core.RecipeFor(ctx)
	rec.CoarseLevels = coarse
	rec.Seed = seed
	rec.Sampling.Simulator = backend == "sim"

	start := time.Now()
	fmt.Printf("training policy for %s (%s backend, %d coarse levels)...\n", ctx, backend, coarse)
	policy, err := rec.Train(ctx.Name, space, parallel.Options{Procs: procs}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("trained in %.1fs\n", time.Since(start).Seconds())
	printSolve(policy)

	if out == "" {
		out = ctx.Name + ".policy.json"
	}
	if err := atomicfile.Replace(out, policy.Save); err != nil {
		return err
	}
	fmt.Printf("saved to %s\n", out)

	// Show the policy's view of a few landmark configurations.
	def := space.DefaultConfig()
	fmt.Printf("predicted rt at Table-1 defaults: %.3fs\n", policy.PredictRT(def))
	return nil
}

// printSolve prints how the policy's offline solve converged under its
// schedule; LoadPolicy runs the solve again, so a loaded policy prints what
// the trained one did.
func printSolve(policy *core.Policy) {
	tr, schedule := policy.Training(), policy.Schedule()
	fmt.Printf("offline solve: sweeps %d/%d converged=%v (last sweep's largest change %.4g, threshold %g)\n",
		tr.Sweeps, schedule.MaxSweeps, tr.Converged, tr.FinalErr, schedule.Theta)
}

func inspectPolicy(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	space := config.Default()
	policy, err := core.LoadPolicy(f, space)
	if err != nil {
		return err
	}
	fmt.Printf("policy:   %s\n", policy.Name())
	fmt.Printf("digest:   %s\n", policy.Digest())
	fmt.Printf("SLA:      %.2fs\n", policy.SLA())
	printSolve(policy)
	// A loaded policy derives one Q row per group-lattice state.
	groups, err := space.Grouping()
	if err != nil {
		return err
	}
	fmt.Printf("q-states: %d\n", groups.Space().States())

	def := space.DefaultConfig()
	fmt.Printf("predicted rt at defaults: %.3fs\n", policy.PredictRT(def))
	// Walk the greedy group policy from the default configuration.
	fmt.Println("\ngreedy walk from the Table-1 defaults:")
	cur := def.Clone()
	acts := config.Actions(space)
	row := make([]float64, len(acts))
	for step := 0; step < 12; step++ {
		policy.SeedRow(cur, row)
		best, bestV := 0, row[0]
		for i, a := range acts {
			if _, ok := a.Apply(space, cur); !ok {
				continue
			}
			if row[i] > bestV {
				best, bestV = i, row[i]
			}
		}
		if acts[best].Dir == config.Keep {
			fmt.Printf("  step %2d: keep (stable)\n", step+1)
			break
		}
		next, _ := acts[best].Apply(space, cur)
		fmt.Printf("  step %2d: %-28s → predicted %.3fs\n",
			step+1, acts[best].Describe(space), policy.PredictRT(next))
		cur = next
	}
	return nil
}
