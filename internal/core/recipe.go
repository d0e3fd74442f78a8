package core

import (
	"errors"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// Recipe is every input a trained policy's digest depends on, Algorithm 2's
// inputs for one context; zero values select LearnPolicyStream's defaults. It
// is comparable, so it can key a cache of policies. Its JSON form, the fleet
// registry's recipe file, holds no Sampling: a decoded recipe is analytic.
type Recipe struct {
	Mix          string          `json:"mix"`
	Clients      int             `json:"clients"`
	Level        string          `json:"level"`
	SLASeconds   float64         `json:"slaSeconds"`
	CoarseLevels int             `json:"coarseLevels"`
	Batch        mdp.BatchConfig `json:"batch"`
	Seed         uint64          `json:"seed"`
	Sampling     Sampling        `json:"-"`
}

// Sampling is the system a recipe's coarse sweep measures: the analytic
// surface (the zero value) or, with Simulator set, system.SimulatedSampler
// over the two windows in virtual seconds (zero: the simulator's defaults).
type Sampling struct {
	Simulator                     bool
	SettleSeconds, MeasureSeconds float64
}

// RecipeFor returns the recipe of ctx's coordinates with every other input at
// its zero value.
func RecipeFor(ctx system.Context) Recipe {
	return Recipe{Mix: ctx.Workload.Mix.String(), Clients: ctx.Workload.Clients, Level: ctx.Level.Name}
}

// Context resolves the recipe's context coordinates.
func (rec Recipe) Context() (system.Context, error) {
	mix, err := tpcw.ParseMix(rec.Mix)
	if err != nil {
		return system.Context{}, err
	}
	level, err := vmenv.ByName(rec.Level)
	w := tpcw.Workload{Mix: mix, Clients: rec.Clients}
	return system.Context{Workload: w, Level: level}, errors.Join(err, w.Validate())
}

// Train runs Algorithm 2 for the recipe over space through LearnPolicyStream,
// naming the policy name. pool bounds the sweep's workers and receives its
// instruments, and surf, which may be nil, memoizes the sampled points; no
// policy byte depends on either.
func (rec Recipe) Train(name string, space *config.Space, pool parallel.Options, surf *surface.Cache) (*Policy, error) {
	ctx, err := rec.Context()
	if err != nil {
		return nil, err
	}
	opts := InitOptions{
		CoarseLevels: rec.CoarseLevels,
		Batch:        rec.Batch,
		SLASeconds:   rec.SLASeconds,
		Seed:         rec.Seed,
		Procs:        pool.Procs,
		Telemetry:    pool.Telemetry,
	}
	var sample StreamSampler
	if s := rec.Sampling; s.Simulator {
		sample = system.SimulatedSampler(space, ctx, s.SettleSeconds, s.MeasureSeconds, surf)
	} else {
		opts.BatchSampler = system.AnalyticSampler(space, ctx, surf)
	}
	return LearnPolicyStream(name, space, sample, opts)
}
