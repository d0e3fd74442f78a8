package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/fleet"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// steadyFleet is a fleet admitted and warmed up, ready for its timed rounds.
type steadyFleet struct {
	e   *env
	f   *fleet.Fleet
	tel *telemetry.Registry
	dir string
	// cause is the span the tenant systems hang their spans under (the
	// current round, on a traced run).
	cause atomic.Int64

	order     []int  // tenant numbers in admission order
	heapSix   uint64 // live heap after the trained tenants were admitted
	heapAdmit uint64 // live heap after every tenant was admitted
	admitUS   []float64
}

func tenantName(i int) string { return fmt.Sprintf("t-%05d", i) }

// tenantContext is the Table-2 context tenant i runs: round-robin, so the six
// contexts have equal shares of the fleet.
func tenantContext(i int) string {
	return fmt.Sprintf("context-%d", i%len(system.Table2())+1)
}

// admissionOrder is the fleet's input: the order in which the tenants ask to
// be admitted. The first six (one per context) come first, in order — they
// train and publish the policies everyone else warm-starts from — and the
// seed shuffles the rest. Every tenant's seed derives from its name, so what
// each tenant then does must not depend on that order; the check that
// Statuses(), sorted by name, hash the same on every repeat holds the program
// to it.
func admissionOrder(seed uint64, tenants int) []int {
	trained := min(tenants, len(system.Table2()))
	order := make([]int, 0, tenants)
	for i := 0; i < trained; i++ {
		order = append(order, i)
	}
	for _, j := range sim.NewRNG(seed ^ 0xf1ee7).Perm(tenants - trained) {
		order = append(order, trained+j)
	}
	return order
}

// fleetTrainInit is the reduced offline schedule the fleet trains its six
// context policies with at admission (two coarse levels, thirty sweeps): the
// workload is about steady-state rounds, not training.
func fleetTrainInit() *core.InitOptions {
	bc := mdp.DefaultBatchConfig()
	bc.MaxSweeps = 30
	return &core.InitOptions{CoarseLevels: 2, Batch: bc}
}

// fleetSetup builds a fleet of analytic tenants round-robin over the six
// Table-2 contexts — the first six train and publish their context's policy,
// the rest warm-start from the registry — and runs the warm-up rounds.
// ckptDir, when set, enables the checkpoint store with the periodic cadence
// pushed out of reach, so only explicit CheckpointNow calls write.
func fleetSetup(e *env, tenants int, ckptDir string) (*steadyFleet, error) {
	dir, err := e.scratch("fleet-")
	if err != nil {
		return nil, err
	}
	s := &steadyFleet{e: e, tel: telemetry.NewRegistry(), dir: dir}
	opts := fleet.Options{
		Seed:        programSeed,
		Shards:      8,
		Procs:       e.procs,
		RegistryDir: filepath.Join(dir, "registry"),
		TrainInit:   fleetTrainInit(),
		Telemetry:   s.tel,
	}
	if ckptDir != "" {
		opts.CheckpointDir = ckptDir
		opts.CheckpointEvery = 1 << 30
	}
	if e.traced() {
		opts.NewSystem = func(spec fleet.TenantSpec, ctx system.Context, seed uint64) (system.System, error) {
			// The fleet's own *Space: agents compare space pointers to decide
			// whether a policy's interned structure may be shared.
			inner, err := system.NewAnalytic(system.AnalyticOptions{
				Space: s.f.Space(), Context: ctx, Seed: seed, NoiseSigma: spec.NoiseSigma})
			if err != nil {
				return nil, err
			}
			return traceSystem(inner, e.tr, &s.cause, "queueing.Measure"), nil
		}
	}
	if s.f, err = fleet.New(opts); err != nil {
		s.close()
		return nil, err
	}
	contexts := len(system.Table2())
	s.order = admissionOrder(e.seed, tenants)
	for k, i := range s.order {
		spec := fleet.TenantSpec{
			Name:        tenantName(i),
			Backend:     "analytic",
			Context:     tenantContext(i),
			TrainPolicy: i < contexts,
		}
		if k == contexts {
			s.heapSix = heapLive()
		}
		start := time.Now()
		if _, err := s.f.Admit(spec); err != nil {
			s.close()
			return nil, fmt.Errorf("fleet-steady: admit %s: %w", spec.Name, err)
		}
		if i >= contexts {
			s.admitUS = append(s.admitUS, float64(time.Since(start))/1e3)
		}
	}
	s.heapAdmit = heapLive()
	for i := 0; i < e.sz.warmRounds; i++ {
		if err := s.f.RunRound(); err != nil {
			s.close()
			return nil, fmt.Errorf("fleet-steady: warm-up round: %w", err)
		}
	}
	return s, nil
}

// close stops the fleet and removes its on-disk state.
func (s *steadyFleet) close() {
	if s.f != nil {
		_ = s.f.Shutdown() // can only fail writing final checkpoints, which are deleted next
	}
	os.RemoveAll(s.dir)
}

// rounds is the outcome of the timed rounds of one fleet.
type rounds struct {
	costs    []unit // per round
	wallS    float64
	hash     string  // of the final Statuses(), sorted by name, as JSON
	meanRT   float64 // over every tenant-step of the timed rounds
	sloShare float64 // tenant-steps with reward ≥ 0 ÷ all of them
}

// run is the operation: the timed rounds, each one tenant-step for every
// tenant. Between rounds (outside the round's own timing) it reads what each
// tenant just measured, so the quality numbers cover every tenant-step and
// not only the last round.
func (s *steadyFleet) run(parent int64) (*rounds, error) {
	e := s.e
	out := &rounds{}
	var rts []float64
	met := 0
	var statuses []fleet.TenantStatus
	start := time.Now()
	for i := 0; i < e.sz.timedRounds; i++ {
		sp := e.tr.start(parent, "fleet.RunRound", "")
		s.cause.Store(sp.id)
		watch := startWatch()
		if err := s.f.RunRound(); err != nil {
			return nil, fmt.Errorf("fleet-steady: round %d: %w", i, err)
		}
		out.costs = append(out.costs, watch.stop())
		sp.end()
		statuses = s.f.Statuses()
		for _, st := range statuses {
			if st.State == fleet.StateFailed {
				return nil, fmt.Errorf("fleet-steady: tenant %s failed in round %d: %s", st.Name, i, st.LastError)
			}
			rts = append(rts, st.LastRT)
			if st.LastReward >= 0 {
				met++
			}
		}
	}
	out.wallS = time.Since(start).Seconds()
	want := e.sz.warmRounds + e.sz.timedRounds
	for _, st := range statuses {
		if st.Interval != want {
			return nil, fmt.Errorf("fleet-steady: tenant %s is at interval %d, want %d", st.Name, st.Interval, want)
		}
	}
	// Statuses() lists tenants in admission order, which is this workload's
	// input; what each tenant did must not depend on it.
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Name < statuses[j].Name })
	blob, err := json.Marshal(statuses)
	if err != nil {
		return nil, err
	}
	out.hash = hashHex(blob)
	out.meanRT = mean(rts)
	out.sloShare = float64(met) / float64(len(rts))
	return out, nil
}

func runFleetSteady(e *env) (*report, error) {
	r := newReport("fleet-steady", e.traced())
	if e.traced() {
		return r, fleetTraced(e, r)
	}
	var s *steadyFleet
	var costs [][]unit // per repeat, per round
	var perTenant []float64
	var hashes []string
	var last *rounds
	// An operation uses its fleet up, so every repeat runs the same rounds on
	// a fresh fleet; the heap is read while that fleet is the only one alive.
	n, err := e.alternate(r, func() (err error) {
		s, err = fleetSetup(e, e.sz.tenants, "")
		return err
	}, func() error {
		out, err := s.run(0)
		if err != nil {
			return err
		}
		perTenant = append(perTenant, float64(heapLive()-s.heapSix)/float64(e.sz.tenants-len(system.Table2())))
		costs, hashes, last = append(costs, out.costs), append(hashes, out.hash), out
		return nil
	}, func() {
		if s != nil {
			s.close()
			s = nil
		}
	})
	if err != nil {
		return nil, err
	}
	if !allEqual(hashes) {
		return nil, fmt.Errorf("fleet-steady: Statuses() differ between repeats")
	}
	r.check("zero failed tenants, every tenant at interval %d", e.sz.warmRounds+e.sz.timedRounds)
	r.check("Statuses() JSON hash equal across %d repeats", n)

	r.Attempted = n * e.sz.tenants * e.sz.timedRounds
	r.timings("round_ms", costs, float64(e.sz.tenants))
	r.Metrics["rt_over_sla"] = last.meanRT / slaSeconds
	r.Metrics["slo_share"] = last.sloShare
	r.Repeats["heap_bytes_per_tenant"] = perTenant
	return r, nil
}

func fleetTraced(e *env, r *report) error {
	s, err := fleetSetup(e, e.sz.tenants, "")
	if err != nil {
		return err
	}
	defer s.close()
	spinMS := spin()
	setupSnap := s.tel.Snapshot()
	root := e.tr.start(0, "fleet", "")
	out, err := s.run(root.id)
	root.end()
	if err != nil {
		return err
	}
	heapEnd := heapLive()
	r.check("zero failed tenants, every tenant at interval %d", e.sz.warmRounds+e.sz.timedRounds)
	steps := float64(e.sz.tenants * e.sz.timedRounds)
	r.Attempted = int(steps)

	agg := aggregate(since(e.tr.snapshot(), root.start)) // the warm-up rounds' spans stay out
	apply, measure := statsOf(agg, "system.Apply"), statsOf(agg, "queueing.Measure")
	snap := s.tel.Snapshot()
	stepNames := []string{"rac_fleet_step_seconds", "rac_fleet_shard_step_seconds"}
	stepSum, _ := histTotal(snap, stepNames...)
	stepSum0, _ := histTotal(setupSnap, stepNames...)
	stepS := stepSum - stepSum0 // tenant-step wall time of the timed rounds
	workerS := float64(e.procs) * out.wallS

	m := r.Metrics
	m["core.step_apply_us"] = float64(apply.total) / 1e3 / steps
	m["core.step_measure_us"] = float64(measure.total) / 1e3 / steps
	m["core.step_self_us"] = (stepS*1e6 - float64(apply.total+measure.total)/1e3) / steps
	m["core.step_us_p50"] = stepS * 1e6 / steps // mean: the fleet exposes step times as histogram sums only
	m["core.steps"] = counterTotal(snap, "rac_agent_steps_total") - counterTotal(setupSnap, "rac_agent_steps_total")
	m["core.retrains"] = counterTotal(snap, "rac_agent_retrains_total") - counterTotal(setupSnap, "rac_agent_retrains_total")
	m["core.policy_switches"] = counterTotal(snap, "rac_agent_policy_switches_total")
	m["queueing.solves"] = float64(measure.count)
	m["queueing.busy_share"] = float64(measure.total) / 1e9 / workerS
	roundMS, _ := floors([][]unit{out.costs})
	m["fleet.round_ms_p50"] = median(roundMS)
	m["fleet.round_ms_max"] = slices.Max(roundMS)
	if k := min(5, len(roundMS)/2); k > 0 {
		m["fleet.round_drift_ratio"] = mean(roundMS[len(roundMS)-k:]) / mean(roundMS[:k])
	}
	m["fleet.sched_overhead_share"] = 1 - stepS/workerS
	m["fleet.admit_us_p50"] = median(s.admitUS)
	warm := float64(e.sz.tenants - len(system.Table2()))
	if warm > 0 {
		m["fleet.heap_bytes_per_tenant_admit"] = float64(s.heapAdmit-s.heapSix) / warm
		m["fleet.heap_bytes_per_tenant"] = float64(heapEnd-s.heapSix) / warm
	}
	m["fleet.rounds"] = counterTotal(snap, "rac_fleet_rounds_total")
	m["fleet.warm_starts"] = counterTotal(snap, "rac_fleet_warm_starts_total")
	m["parallel.tasks"] = counterTotal(snap, "rac_parallel_tasks_total")
	m["parallel.queue_wait_s"], _ = histTotal(snap, "rac_parallel_queue_wait_seconds")
	m["quality.mean_rt_s"] = out.meanRT
	m["benchmark.traced_op_ms"] = out.wallS * 1e3
	m["benchmark.spin_ms"] = spinMS
	m["benchmark.span_coverage_share"] = stepS / workerS
	return fleetCheckpoints(e, m)
}

// fleetCheckpoints measures the admin path on a side fleet small enough to
// run in a second but whose tenants carry as much learned state as the main
// fleet's: CheckpointNow on an idle fleet, the same call while a round runs
// (it rides the shard mailbox and waits one tenant-step), and a second fleet
// restoring every tenant from those files. Only the traced run pays the
// fsyncs.
func fleetCheckpoints(e *env, m map[string]float64) error {
	plain := *e
	plain.tr = nil // the side fleet leaves no spans
	ckpts, err := plain.scratch("ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckpts)
	n := e.sz.ckptTenants
	s, err := fleetSetup(&plain, n, ckpts)
	if err != nil {
		return err
	}
	defer s.close()
	for i := 0; i < e.sz.timedRounds; i++ {
		if err := s.f.RunRound(); err != nil {
			return err
		}
	}

	var idleMS, busyMS []float64
	var bytes int64
	for _, i := range s.order {
		name := tenantName(i)
		start := time.Now()
		if err := s.f.CheckpointNow(name); err != nil {
			return fmt.Errorf("fleet-steady: checkpoint %s: %w", name, err)
		}
		idleMS = append(idleMS, float64(time.Since(start))/1e6)
	}
	err = filepath.Walk(ckpts, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}

	// Admin checkpoints against a running fleet: rounds run back to back on
	// one goroutine while this one issues the calls.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := s.f.RunRound(); err != nil {
				done <- err
				return
			}
		}
	}()
	for _, i := range s.order {
		name := tenantName(i)
		start := time.Now()
		if err := s.f.CheckpointNow(name); err != nil {
			close(stop)
			<-done
			return fmt.Errorf("fleet-steady: checkpoint %s under load: %w", name, err)
		}
		busyMS = append(busyMS, float64(time.Since(start))/1e6)
	}
	close(stop)
	if err := <-done; err != nil {
		return err
	}

	// Restore: a second fleet over the same registry and checkpoint
	// directories re-admits every tenant from its newest snapshot.
	restoreStart := time.Now()
	tel := telemetry.NewRegistry()
	f2, err := fleet.New(fleet.Options{
		Seed: programSeed, Shards: 8, Procs: e.procs,
		RegistryDir:   filepath.Join(s.dir, "registry"),
		CheckpointDir: ckpts, CheckpointEvery: 1 << 30,
		TrainInit: fleetTrainInit(), Telemetry: tel,
	})
	if err != nil {
		return err
	}
	for _, i := range s.order {
		spec := fleet.TenantSpec{Name: tenantName(i), Backend: "analytic", Context: tenantContext(i)}
		if _, err := f2.Admit(spec); err != nil {
			return fmt.Errorf("fleet-steady: restore %s: %w", spec.Name, err)
		}
	}
	restoreS := time.Since(restoreStart).Seconds()
	// A tenant whose agent had switched to another context's policy restores
	// only if that policy is already in the new fleet's store, which depends on
	// admission order; the others cold-start. The count is reported, not
	// required to be all of them.
	restored := counterTotal(tel.Snapshot(), "rac_fleet_restores_total")
	if restored == 0 {
		return fmt.Errorf("fleet-steady: no tenant restored from its checkpoint")
	}
	if err := f2.Shutdown(); err != nil {
		return err
	}

	m["fleet.checkpoint_ms_p50"] = median(idleMS)
	m["fleet.checkpoint_bytes"] = float64(bytes) / float64(n)
	m["fleet.admin_checkpoint_ms_p50"] = median(busyMS)
	m["fleet.restore_s"] = restoreS
	m["fleet.restored"] = restored
	return nil
}
