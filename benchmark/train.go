package main

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/queueing"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/webtier"
)

// trainer holds what train-cold sets up once: the space, the physical
// constants and the contexts to train for.
type trainer struct {
	e     *env
	space *config.Space
	cal   webtier.Calibration
	ctxs  []system.Context // in the order -seed puts them
	table []int            // ctxs[i] is Table-2 row table[i]
}

// newTrainer picks the contexts to train and shuffles them with the seed: the
// order policies are asked for is the workload's input, what each policy
// turns out to be is not (every context trains from its own program seed).
func newTrainer(e *env) *trainer {
	t := &trainer{e: e, space: config.Default(), cal: webtier.DefaultCalibration()}
	all := system.Table2()[:e.sz.trainContexts]
	for _, i := range sim.NewRNG(e.seed).Perm(len(all)) {
		t.ctxs, t.table = append(t.ctxs, all[i]), append(t.table, i)
	}
	return t
}

// learned is one trained policy and what training it cost.
type learned struct {
	policy *core.Policy
	hash   string
	cost   unit
	tel    telemetry.Snapshot
}

// learn runs Algorithm 2 for one context the way bench.Harness, racpolicy and
// the fleet's TrainPolicy do: a 16-configuration BatchSampler over a
// response-surface memo around the analytic website solver. The memo is fresh
// per call, so every lookup misses — train-cold is the cache-bypassing case.
func (t *trainer) learn(parent int64, i int) (learned, error) {
	e, ctx := t.e, t.ctxs[i]
	tel := telemetry.NewRegistry()
	surf := surface.New(tel)
	lp := e.tr.start(parent, "core.LearnPolicyStream", ctx.Name)
	batch := func(cfgs []config.Config, _ []*sim.RNG, out []float64) error {
		bs := e.tr.start(lp.id, "sampler.batch", ctx.Name)
		defer bs.end()
		ws := queueing.NewWebsiteSolver()
		for j, cfg := range cfgs {
			do := e.tr.start(bs.id, "surface.Do", "")
			rt, err := surf.Do(ctx.Name+"|"+cfg.Key(), func() (float64, error) {
				sv := e.tr.start(do.id, "queueing.WebsiteSolver.Solve", "")
				defer sv.end()
				params, err := webtier.ParamsFromConfig(t.space, cfg)
				if err != nil {
					return 0, err
				}
				res, err := ws.Solve(t.cal, params, ctx.Workload, ctx.Level)
				return res.MeanRT, err
			})
			do.end()
			if err != nil {
				return err
			}
			out[j] = rt
		}
		return nil
	}
	opts := core.InitOptions{
		CoarseLevels: e.sz.coarseLevels,
		SLASeconds:   slaSeconds,
		Seed:         programSeed*1_000_003 + uint64(t.table[i]),
		Procs:        e.procs,
		BatchSampler: batch,
		Telemetry:    tel,
	}
	if e.sz.trainSweeps > 0 {
		opts.Batch = mdp.DefaultBatchConfig()
		opts.Batch.MaxSweeps = e.sz.trainSweeps
	}
	watch := startWatch()
	p, err := core.LearnPolicyStream(ctx.Name, t.space, nil, opts)
	cost := watch.stop()
	lp.end()
	if err != nil {
		return learned{}, fmt.Errorf("train-cold: %s: %w", ctx.Name, err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return learned{}, fmt.Errorf("train-cold: save %s: %w", ctx.Name, err)
	}
	return learned{policy: p, hash: hashHex(buf.Bytes()), cost: cost, tel: tel.Snapshot()}, nil
}

// setup builds the trainer and warms the process up with one untimed policy:
// Table 2's first context, wherever the seed put it, so that set-up is the
// same work on every seed.
func trainSetup(e *env) (*trainer, error) {
	t := newTrainer(e)
	first := 0
	for i, row := range t.table {
		if row == 0 {
			first = i
		}
	}
	_, err := t.learn(0, first)
	return t, err
}

// op trains every context once, one after another.
func (t *trainer) op(parent int64) ([]learned, error) {
	out := make([]learned, len(t.ctxs))
	for i := range t.ctxs {
		l, err := t.learn(parent, i)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

// quality solves the analytic model at each policy's recommendation: the
// response time a site deployed with the offline policy alone would see.
func (t *trainer) quality(ls []learned) (rtOverSLA, sloShare float64, err error) {
	var sum float64
	met := 0
	for i, l := range ls {
		cfg, err := l.policy.Recommend()
		if err != nil {
			return 0, 0, fmt.Errorf("train-cold: recommend %s: %w", t.ctxs[i].Name, err)
		}
		if err := t.space.Validate(cfg); err != nil {
			return 0, 0, fmt.Errorf("train-cold: %s recommends a configuration outside the space: %w", t.ctxs[i].Name, err)
		}
		params, err := webtier.ParamsFromConfig(t.space, cfg)
		if err != nil {
			return 0, 0, err
		}
		res, err := queueing.SolveWebsite(t.cal, params, t.ctxs[i].Workload, t.ctxs[i].Level)
		if err != nil {
			return 0, 0, err
		}
		sum += res.MeanRT
		if res.MeanRT <= slaSeconds {
			met++
		}
	}
	n := float64(len(ls))
	return sum / n / slaSeconds, float64(met) / n, nil
}

func runTrainCold(e *env) (*report, error) {
	r := newReport("train-cold", e.traced())
	if e.traced() {
		return r, trainTraced(e, r)
	}
	var t *trainer
	var held []learned  // the operation's policies: what heap_live_mb holds
	var costs [][]unit  // per repeat, per context
	var hashes []string // per repeat, the contexts' hashes in Table-2 order
	var rtOverSLA, sloShare float64
	n, err := e.alternate(r, func() (err error) {
		t, err = trainSetup(e)
		return err
	}, func() (err error) {
		if held, err = t.op(0); err != nil {
			return err
		}
		cs, hs := make([]unit, len(held)), make([]string, len(held))
		for i, l := range held {
			cs[i], hs[t.table[i]] = l.cost, l.hash
		}
		costs, hashes = append(costs, cs), append(hashes, strings.Join(hs, " "))
		rtOverSLA, sloShare, err = t.quality(held)
		return err
	}, func() { t, held = nil, nil })
	if err != nil {
		return nil, err
	}
	if !allEqual(hashes) {
		return nil, fmt.Errorf("train-cold: a saved policy differs between repeats")
	}
	r.check("SHA-256 of each saved policy equal across %d repeats", n)
	r.check("every Recommend() is a valid configuration of the space")

	r.Attempted = n * e.sz.trainContexts
	r.timings("policy_ms", costs, 1)
	r.Metrics["rt_over_sla"] = rtOverSLA
	r.Metrics["slo_share"] = sloShare
	return r, nil
}

func trainTraced(e *env, r *report) error {
	warm := *e
	warm.tr = nil // the warm-up policy leaves no spans
	t, err := trainSetup(&warm)
	if err != nil {
		return err
	}
	t.e = e
	spinMS := spin()
	root := e.tr.start(0, "train", "")
	ls, err := t.op(root.id)
	wall := root.end()
	if err != nil {
		return err
	}
	if _, _, err := t.quality(ls); err != nil {
		return err
	}
	r.check("every Recommend() is a valid configuration of the space")
	r.Attempted = len(ls)

	agg := aggregate(e.tr.snapshot())
	lp, solve := statsOf(agg, "core.LearnPolicyStream"), statsOf(agg, "queueing.WebsiteSolver.Solve")
	m := r.Metrics
	m["core.learn_policy_self_ms"] = float64(lp.self) / 1e6 / float64(len(ls))
	m["queueing.solves"] = float64(solve.count)
	m["queueing.busy_share"] = float64(solve.total) / (float64(e.procs) * float64(wall))
	var hits, misses, tasks, waitS float64
	for _, l := range ls {
		hits += counterTotal(l.tel, "rac_surface_cache_hits_total")
		misses += counterTotal(l.tel, "rac_surface_cache_misses_total")
		tasks += counterTotal(l.tel, "rac_parallel_tasks_total")
		w, _ := histTotal(l.tel, "rac_parallel_queue_wait_seconds")
		waitS += w
	}
	m["surface.hits"], m["surface.misses"] = hits, misses
	if hits+misses > 0 {
		m["surface.hit_ratio"] = hits / (hits + misses)
	}
	m["parallel.tasks"], m["parallel.queue_wait_s"] = tasks, waitS
	m["benchmark.traced_op_ms"] = float64(wall) / 1e6
	m["benchmark.spin_ms"] = spinMS
	m["benchmark.span_coverage_share"] = float64(lp.total) / float64(wall)
	return nil
}
