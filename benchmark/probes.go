package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"github.com/rac-project/rac/internal/admission"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/queueing"
	"github.com/rac-project/rac/internal/regression"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
	"github.com/rac-project/rac/internal/workload"
)

// Probes time one public function of one layer in a loop, on inputs sized
// from the workloads. They are what a per-layer change is first seen in; the
// "should move" column of the README says which end-to-end metric each one
// predicts. Every traced run executes all of them, whatever its workload.

// probe times fn in a loop for about budget and returns the mean nanoseconds
// per call (at least three calls, whatever they take).
func probe(budget time.Duration, fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm
		return 0, err
	}
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < budget {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(time.Since(start)) / float64(n), nil
}

// batch is the inner-loop length of the nanosecond-scale probes, so the clock
// is read once per thousand calls.
const batch = 1000

// perCall times fn, which performs batch calls per invocation, and returns
// nanoseconds per call.
func perCall(budget time.Duration, fn func()) float64 {
	ns, _ := probe(budget, func() error { fn(); return nil })
	return ns / batch
}

// gridModel is a dense lattice MDP with the shape the policy code trains on:
// one dimension per parameter group, one action per direction per dimension
// plus keep, reward a smooth bowl. The benchmark owns it, so the mdp probes
// measure mdp alone.
type gridModel struct {
	levels  []int
	strides []int
	states  []string
	rewards []float64
}

func newGridModel(levels []int) *gridModel {
	m := &gridModel{levels: levels, strides: make([]int, len(levels))}
	total := 1
	for d := len(levels) - 1; d >= 0; d-- {
		m.strides[d] = total
		total *= levels[d]
	}
	m.states = make([]string, total)
	m.rewards = make([]float64, total)
	for s := range m.states {
		m.states[s] = strconv.Itoa(s)
		var dist float64
		for d := range levels {
			x := float64(m.coord(s, d))/float64(levels[d]) - 0.4
			dist += x * x
		}
		m.rewards[s] = 1.5 - 4*dist
	}
	return m
}

func (m *gridModel) coord(s, d int) int { return s / m.strides[d] % m.levels[d] }

func (m *gridModel) States() []string { return m.states }
func (m *gridModel) Actions() int     { return 2*len(m.levels) + 1 }

func (m *gridModel) NextIndex(s, a int) int {
	if a == 0 {
		return s
	}
	d := (a - 1) / 2
	c := m.coord(s, d)
	if a%2 == 1 {
		if c+1 >= m.levels[d] {
			return -1
		}
		return s + m.strides[d]
	}
	if c == 0 {
		return -1
	}
	return s - m.strides[d]
}

func (m *gridModel) RewardIndex(s int) float64 { return m.rewards[s] }

func (m *gridModel) Next(state string, a int) (string, bool) {
	s, err := strconv.Atoi(state)
	if err != nil || s < 0 || s >= len(m.states) {
		return state, false
	}
	t := m.NextIndex(s, a)
	if t < 0 {
		return state, false
	}
	return m.states[t], true
}

func (m *gridModel) Reward(state string) float64 {
	s, err := strconv.Atoi(state)
	if err != nil || s < 0 || s >= len(m.states) {
		return 0
	}
	return m.rewards[s]
}

// groupLevels returns the level count of each parameter group's lattice in
// the space: the members' common range at their finest step, which is the
// lattice core.LearnPolicyStream trains its offline Q-table over.
func groupLevels(space *config.Space) []int {
	members := config.GroupMembers(space)
	var levels []int
	for _, g := range config.Groups() {
		idx := members[g]
		if len(idx) == 0 {
			continue
		}
		d := space.Def(idx[0])
		lo, hi, step := d.Min, d.Max, d.Step
		for _, i := range idx[1:] {
			d := space.Def(i)
			lo, hi, step = max(lo, d.Min), min(hi, d.Max), min(step, d.Step)
		}
		levels = append(levels, (hi-lo)/step+1)
	}
	return levels
}

// regionModel is a gridModel over a thin slab of a wide lattice, about as
// many states as an agent's retraining region holds after the fleet's
// thirty-three rounds (visited states plus their one-action frontier), with
// the agent's seventeen actions.
func regionModel() *gridModel {
	return newGridModel([]int{3, 3, 3, 2, 2, 2, 2, 2})
}

func runProbes(e *env, m map[string]float64) error {
	budget := e.sz.probeBudget
	space := config.Default()
	cal := webtier.DefaultCalibration()

	// mdp
	lattice := newGridModel(groupLevels(space))
	offline := mdp.DefaultBatchConfig()
	offline.MaxSweeps, offline.Theta = 400, 0.005 // LearnPolicyStream's offline schedule
	if e.sz.trainSweeps > 0 {
		offline.MaxSweeps = e.sz.trainSweeps
	}
	start := time.Now()
	res, err := mdp.BatchTrain(mdp.NewQTable(lattice.Actions(), 0), lattice, offline, sim.NewRNG(1))
	if err != nil {
		return fmt.Errorf("probe mdp.batchtrain: %w", err)
	}
	m["mdp.batchtrain_ms"] = float64(time.Since(start)) / 1e6
	m["mdp.batchtrain_sweeps"] = float64(res.Sweeps)

	region := regionModel()
	o := core.DefaultOptions()
	retrain := mdp.BatchConfig{Params: o.Batch, StepsPerState: o.BatchStepsPerState, MaxSweeps: o.BatchSweeps, Theta: o.BatchTheta}
	regionQ := mdp.NewQTable(region.Actions(), 0)
	rng := sim.NewRNG(2)
	ns, err := probe(budget, func() error {
		_, err := mdp.BatchTrain(regionQ, region, retrain, rng)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe mdp.region_retrain: %w", err)
	}
	m["mdp.region_retrain_us"] = ns / 1e3

	states := make([]string, 64)
	for i := range states {
		states[i] = "state-" + strconv.Itoa(i)
	}
	learner, err := mdp.NewLearner(mdp.NewQTable(17, 0), mdp.DefaultOnline(), sim.NewRNG(3))
	if err != nil {
		return err
	}
	m["mdp.td_update_ns"] = perCall(budget, func() {
		for i := 0; i < batch; i++ {
			learner.UpdateSARSA(states[i%64], i%17, 1.5, states[(i+1)%64], (i+3)%17)
		}
	})

	keys := make([]string, batch)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	seeded := make([]float64, 17)
	shared := mdp.NewSharedRows(17, func(string) []float64 { return seeded })
	reader := mdp.NewQTable(17, 0)
	reader.SetShared(shared)
	m["mdp.readrow_ns"] = perCall(budget, func() {
		for _, k := range keys {
			reader.ReadRow(k)
		}
	})
	m["mdp.cow_row_ns"] = perCall(budget, func() {
		q := mdp.NewQTable(17, 0) // every Row below is this table's first write to that state
		q.SetShared(shared)
		for _, k := range keys {
			q.Row(k)[0] = 1
		}
	})
	delta := mdp.NewQTable(17, 0)
	delta.SetShared(shared)
	for _, k := range keys[:64] {
		delta.Row(k)[0] = 1
	}
	var saved bytes.Buffer
	ns, err = probe(budget, func() error {
		saved.Reset()
		return delta.Save(&saved)
	})
	if err != nil {
		return fmt.Errorf("probe mdp.qtable_save: %w", err)
	}
	m["mdp.qtable_save_us"], m["mdp.qtable_save_bytes"] = ns/1e3, float64(saved.Len())

	// queueing
	w := tpcw.Workload{Mix: tpcw.Shopping, Clients: system.DefaultClients}
	params := webtier.DefaultParams()
	ws := queueing.NewWebsiteSolver()
	ns, err = probe(budget, func() error {
		for _, level := range vmenv.Levels() {
			if _, err := ws.Solve(cal, params, w, level); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("probe queueing.website_solve: %w", err)
	}
	m["queueing.website_solve_us"] = ns / 1e3 / float64(len(vmenv.Levels()))
	sixteen := make([]webtier.Params, 16)
	for i := range sixteen {
		sixteen[i] = params
		sixteen[i].MaxClients += 10 * i
	}
	ns, err = probe(budget, func() error {
		_, err := queueing.SolveWebsiteBatch(cal, sixteen, w, vmenv.Level1)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe queueing.batch16: %w", err)
	}
	m["queueing.batch16_us"] = ns / 1e3
	stations := []queueing.Station{
		{Name: "web", Demand: 0.011, Rate: queueing.MultiServer(2)},
		{Name: "appdb", Demand: 0.019, Rate: queueing.MultiServer(3)},
		{Name: "disk", Demand: 0.03},
	}
	solver := queueing.NewSolver()
	ns, err = probe(budget, func() error {
		_, err := solver.Solve(system.DefaultClients, tpcw.MeanThinkTimeSeconds, stations)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe queueing.exact_mva: %w", err)
	}
	m["queueing.exact_mva_us"] = ns / 1e3
	ns, err = probe(budget, func() error {
		_, err := solver.SolveApprox(system.DefaultClients, tpcw.MeanThinkTimeSeconds, stations)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe queueing.approx_mva: %w", err)
	}
	m["queueing.approx_mva_us"] = ns / 1e3

	// surface
	value := func() (float64, error) { return 1, nil }
	m["surface.do_miss_ns"] = perCall(budget, func() {
		c := surface.New(nil)
		for _, k := range keys {
			_, _ = c.Do(k, value) // value never fails
		}
	})
	hot := surface.New(nil)
	for _, k := range keys {
		_, _ = hot.Do(k, value)
	}
	m["surface.do_hit_ns"] = perCall(budget, func() {
		for _, k := range keys {
			_, _ = hot.Do(k, value)
		}
	})
	m["surface.do_contended_ns"] = perCall(budget, func() {
		var wg sync.WaitGroup
		for g := 0; g < e.procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range keys[:batch/e.procs] {
					_, _ = hot.Do(k, value)
				}
			}()
		}
		wg.Wait()
	})

	// regression: the coarse sample LearnPolicyStream fits (coarseLevels^groups points)
	var xs [][]float64
	var ys []float64
	dims := len(groupLevels(space))
	n := int(math.Pow(float64(e.sz.coarseLevels), float64(dims)))
	for i := 0; i < n; i++ {
		x := make([]float64, dims)
		var y float64
		for d, c := 0, i; d < dims; d, c = d+1, c/e.sz.coarseLevels {
			x[d] = float64(50 + 150*(c%e.sz.coarseLevels))
			y += (x[d] - 300) * (x[d] - 300) / 1e5
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	ns, err = probe(budget, func() error {
		_, err := regression.FitQuadratic(xs, ys)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe regression.fit_quadratic: %w", err)
	}
	m["regression.fit_quadratic_ms"] = ns / 1e6

	// webtier
	model, err := webtier.New(webtier.Options{Workload: w, AppLevel: vmenv.Level1, Seed: 1})
	if err != nil {
		return err
	}
	model.Warmup(60)
	ns, err = probe(budget, func() error {
		_, err := model.Run(60)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe webtier.sim_minute: %w", err)
	}
	m["webtier.sim_minute_ms"] = ns / 1e6
	m["webtier.virtual_s_per_wall_s"] = 60 / (ns / 1e9)

	// admission
	gate, err := admission.NewGate(admission.Params{MaxConcurrent: gateOpen}, admission.DefaultEpoch())
	if err != nil {
		return err
	}
	enter := func(n int) {
		for i := 0; i < n; i++ {
			if release, ok := gate.Enter(tpcw.ClassHome); ok {
				release()
			}
		}
	}
	m["admission.gate_enter_ns"] = perCall(budget, func() { enter(batch) })
	m["admission.gate_enter_contended_ns"] = perCall(budget, func() {
		var wg sync.WaitGroup
		for g := 0; g < e.procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				enter(batch / e.procs)
			}()
		}
		wg.Wait()
	})
	ctl, err := admission.NewController(admission.Params{MaxConcurrent: gateOpen}, admission.DefaultEpoch())
	if err != nil {
		return err
	}
	m["admission.controller_observe_ns"] = perCall(budget, func() {
		for i := 0; i < batch; i++ {
			ctl.Observe(i%50 == 0)
		}
	})

	// workload
	var sched *workload.Schedule
	ns, err = probe(budget, func() (err error) {
		sched, err = workload.Compile(workload.Diurnal())
		return err
	})
	if err != nil {
		return fmt.Errorf("probe workload.compile: %w", err)
	}
	m["workload.compile_ms"] = ns / 1e6
	wrng := workload.ScheduleRNG(1)
	ns, _ = probe(budget, func() error {
		sched.Window(wrng, 0, workload.DefaultIntervalSeconds)
		return nil
	})
	m["workload.window_us"] = ns / 1e3

	// the benchmark's own instrument: what one span costs
	tr := newTracer()
	m["benchmark.span_cost_ns"] = perCall(budget, func() {
		tr.mu.Lock()
		tr.spans = tr.spans[:0]
		tr.mu.Unlock()
		for i := 0; i < batch; i++ {
			tr.start(1, "probe", "").end()
		}
	})
	return nil
}
