package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
)

// slabRegion is the retraining region as it was before it kept state values:
// every row it holds stored in one slab by region index, retrained by the
// slab sweep in place (the Gauss–Seidel sweep mdp.Solve ran over a growing
// structure's live entries). It is the oracle TestRegionMatchesSlab steps
// the region in lockstep with.
type slabRegion struct {
	space   *config.Space
	actions []config.Action
	// seed writes a joining state's row (nil: zeros) and predict prices its
	// reward prior (nil: unmeasured states are SLA-neutral).
	seed    func(cfg config.Config, row []float64)
	predict func(config.Config) float64
	sla     float64

	// samples are the sampled states' lattice ordinals, sorted by key, and
	// sampleIdx the state of each; ords are every state's lattice ordinal,
	// ascending, and ordIdx the state of each.
	samples   []uint64
	sampleIdx []int32
	ords      []uint64
	ordIdx    []int32

	// By state index: the structure, grown in place and compiled when a
	// sample joins; the Q-value slab; whether the state is a sample, and its
	// measured mean response time if so; the reward of entering the state —
	// measured where sampled, the prior elsewhere — and the solve's scratch.
	structure *mdp.GrowingStructure
	rows      []float64
	sampled   []bool
	rt        []float64
	rewards   []float64
	val       []float64

	// loose are the restored rows of states outside the region, not yet
	// joined. A joining state takes its loose row.
	loose map[uint64][]float64

	// Scratch reused across joins and compiles: a neighbour's configuration,
	// a joining state's transitions, two rendered keys; and the discovery
	// order, which the structure keeps as its sweep order.
	cfg        config.Config
	next       []int32
	key, probe []byte
	order      []int32
	stale      bool // a sample joined since the last compile
}

// newSlabRegion returns an empty region over space, whose actions are
// config.Actions(space). p seeds joining rows and prices their reward priors;
// nil seeds zero rows with SLA-neutral priors.
func newSlabRegion(space *config.Space, actions []config.Action, p *Policy, sla float64) *slabRegion {
	r := &slabRegion{space: space, actions: actions, sla: sla,
		structure: mdp.NewGrowingStructure(len(actions)), cfg: make(config.Config, space.Len())}
	if p != nil {
		r.seed, r.predict = p.SeedRow, p.PredictRT
	}
	return r
}

// width returns the number of actions, the length of a row.
func (r *slabRegion) width() int { return len(r.actions) }

// row returns state i's row of the slab.
func (r *slabRegion) row(i int32) []float64 {
	a := r.width()
	return r.rows[int(i)*a : (int(i)+1)*a : (int(i)+1)*a]
}

// held returns the row the agent holds for the state at lattice ordinal ord —
// the region's, else a loose one — or nil; a nil region holds none.
func (r *slabRegion) held(ord uint64) []float64 {
	if r == nil {
		return nil
	}
	if i := r.index(ord); i >= 0 {
		return r.row(i)
	}
	return r.loose[ord]
}

// record folds a measured mean response time into the sample table: a repeat
// visit averages it into the state's sample, a first one makes the state a
// sample, growing the region by it and its neighbours. cfg is the state's
// configuration and ord its lattice ordinal.
func (r *slabRegion) record(ord uint64, cfg config.Config, rt float64) {
	i := r.index(ord)
	if i >= 0 && r.sampled[i] {
		r.rt[i] = 0.5*r.rt[i] + 0.5*rt
		return
	}
	r.key = appendKey(r.key[:0], cfg)
	k, _ := slices.BinarySearchFunc(r.samples, r.key, func(s uint64, key []byte) int {
		r.probe = appendKey(r.probe[:0], r.space.At(s, r.cfg))
		return bytes.Compare(r.probe, key)
	})
	if i < 0 {
		i = r.join(ord, cfg)
	}
	r.sampled[i], r.rt[i] = true, rt
	r.samples = slices.Insert(r.samples, k, ord)
	r.sampleIdx = slices.Insert(r.sampleIdx, k, i)
	next := r.cfg
	for _, act := range r.actions[1:] {
		if !act.Feasible(r.space, cfg) {
			continue
		}
		copy(next, cfg)
		next[act.ParamIndex] += int(act.Dir) * r.space.Def(act.ParamIndex).Step
		r.join(r.space.Ordinal(next), next)
	}
	r.stale = true
}

// export renders the rows the agent holds and its sample table at the
// persistence edge, keyed by configuration key and sharing no storage with
// the region; samples is nil when there are none, and a nil region exports
// an empty table.
func (r *slabRegion) export() (rows map[string][]float64, samples map[string]float64) {
	if r == nil {
		return map[string][]float64{}, nil
	}
	a := r.width()
	rows = make(map[string][]float64, len(r.ords)+len(r.loose))
	slab := make([]float64, 0, (len(r.ords)+len(r.loose))*a)
	cfg := make(config.Config, r.space.Len())
	put := func(ord uint64, row []float64) {
		slab = append(slab, row...)
		rows[r.space.At(ord, cfg).Key()] = slab[len(slab)-a : len(slab) : len(slab)]
	}
	for k, ord := range r.ords {
		put(ord, r.row(r.ordIdx[k]))
	}
	for ord, row := range r.loose {
		put(ord, row)
	}
	if len(r.samples) > 0 {
		samples = make(map[string]float64, len(r.samples))
		for k, ord := range r.samples {
			samples[r.space.At(ord, cfg).Key()] = r.rt[r.sampleIdx[k]]
		}
	}
	return rows, samples
}

// restore fills an empty region from a snapshot's Q-table and sample table:
// the rows become the agent's loose rows, then every sample joins with its
// neighbours, each joining state taking its row. A snapshot is the
// persistence edge, so it is checked where the string keys turn into lattice
// ordinals: every key must be the canonical key of a configuration of the
// space, the table's initial value must be the 0 an agent's table has, and
// every state of the region must have a row — an agent exports the rows of
// every state its region holds.
func (r *slabRegion) restore(table *mdp.QTableJSON, samples map[string]float64) error {
	if table.Initial != 0 {
		return fmt.Errorf("core: snapshot Q-table initial value %v, want 0", table.Initial)
	}
	r.loose = make(map[uint64][]float64, len(table.Rows))
	backing := make([]float64, len(table.Rows)*r.width())
	for key, row := range table.Rows {
		cfg, err := snapshotKey(r.space, key)
		if err != nil {
			return fmt.Errorf("core: restore qtable: %w", err)
		}
		if len(row) != r.width() {
			return fmt.Errorf("core: restore qtable: state %q has %d actions, want %d", key, len(row), r.width())
		}
		own := backing[:len(row):len(row)]
		backing = backing[len(row):]
		copy(own, row)
		r.loose[r.space.Ordinal(cfg)] = own
	}
	for key, rt := range samples {
		cfg, err := snapshotKey(r.space, key)
		if err != nil {
			return fmt.Errorf("core: restore samples: %w", err)
		}
		r.record(r.space.Ordinal(cfg), cfg, rt)
	}
	if seeded := len(r.ords) - (len(table.Rows) - len(r.loose)); seeded != 0 {
		return fmt.Errorf("core: snapshot lacks the rows of %d of its region's %d states", seeded, len(r.ords))
	}
	if len(r.loose) == 0 {
		r.loose = nil
	}
	return nil
}

// index returns the state at lattice ordinal ord, or −1 when the region lacks
// it.
func (r *slabRegion) index(ord uint64) int32 {
	if k, found := slices.BinarySearch(r.ords, ord); found {
		return r.ordIdx[k]
	}
	return -1
}

// join returns the state at lattice ordinal ord, adding it when the region
// lacks it: its row (the loose row held for it, else the seeded one), reward
// prior and transitions, with its neighbours' edges back to it.
func (r *slabRegion) join(ord uint64, cfg config.Config) int32 {
	j, held := slices.BinarySearch(r.ords, ord)
	if held {
		return r.ordIdx[j]
	}
	idx := int32(len(r.rewards))
	r.ords = slices.Insert(r.ords, j, ord)
	r.ordIdx = slices.Insert(r.ordIdx, j, idx)
	if n := len(r.rows) + r.width(); n > cap(r.rows) {
		// Grow by half, as mdp.GrowingStructure grows its transitions: the
		// slab is the largest thing the region holds, and append's quarter
		// past 256 values would copy it about twice as often.
		grown := make([]float64, len(r.rows), max(n, cap(r.rows)*3/2))
		copy(grown, r.rows)
		r.rows = grown
	}
	r.rows = r.rows[:len(r.rows)+r.width()]
	row := r.row(idx)
	if loose, ok := r.loose[ord]; ok {
		copy(row, loose)
		delete(r.loose, ord)
	} else if r.seed != nil {
		r.seed(cfg, row)
	} else {
		clear(row)
	}
	prior := 0.0
	if r.predict != nil {
		prior = r.sla - r.predict(cfg)
	}
	r.rewards = append(r.rewards, prior)
	r.sampled = append(r.sampled, false)
	r.rt = append(r.rt, 0)
	r.next = r.space.Transitions(r.next[:0], []uint64{ord}, r.index)
	r.next[0] = idx // Transitions numbers Keep by position in its argument
	r.structure.Append(r.next)
	for a, to := range r.next[1:] {
		if to >= 0 {
			r.structure.Link(int(to), inverse(a+1), idx)
		}
	}
	return idx
}

// compile recomputes the discovery order and compiles the structure around
// it.
func (r *slabRegion) compile() error {
	st, n := r.structure, len(r.rewards)
	// The solve's scratch is free until the solve: it marks the states found.
	r.val = slices.Grow(r.val[:0], n)[:n]
	clear(r.val)
	r.order = r.order[:0]
	for _, s := range r.sampleIdx {
		for a := range r.actions {
			if to := nextOf(st, int(s), a); to >= 0 && r.val[to] == 0 {
				r.val[to] = 1
				r.order = append(r.order, int32(to))
			}
		}
	}
	if len(r.order) != n {
		panic("core: the region's discovery order misses a state")
	}
	if err := st.Compile(r.order); err != nil {
		return err // no sample yet
	}
	r.stale = false
	return nil
}

// bind compiles the region if a sample joined since the last compile, then
// writes the samples' measurements over their rewards.
func (r *slabRegion) bind() error {
	if r.stale || len(r.rewards) == 0 {
		if err := r.compile(); err != nil {
			return err
		}
	}
	for _, s := range r.sampleIdx {
		r.rewards[s] = r.sla - r.rt[s]
	}
	return nil
}

// solve retrains the region's rows with the interval's rewards: the slab
// sweep in discovery order, each row's feasible entries in action order.
func (r *slabRegion) solve(cfg mdp.BatchConfig) (mdp.BatchResult, error) {
	if err := r.bind(); err != nil {
		return mdp.BatchResult{}, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return mdp.BatchResult{}, err
	}
	st, n := r.structure, len(r.rewards)
	r.val = slices.Grow(r.val[:0], n)[:n]
	val, gamma, eps := r.val, cfg.Params.Gamma, cfg.Params.Epsilon
	backup := func(s int, set bool) float64 {
		row := r.row(int32(s))
		var best, sum float64
		k := 0
		for a := range row {
			to := nextOf(st, s, a)
			if to < 0 {
				continue
			}
			if set {
				row[a] = val[to]
			}
			sum += row[a]
			if k == 0 || row[a] > best {
				best = row[a]
			}
			k++
		}
		return float64((1-eps)*best + eps*sum/float64(k))
	}
	for s := range n {
		val[s] = r.rewards[s] + gamma*backup(s, false)
	}
	var res mdp.BatchResult
	for sweep := 0; sweep < max(cfg.MaxSweeps, 1); sweep++ {
		var maxErr float64
		for i := 0; i < n; i++ {
			p := i
			if sweep%2 == 1 {
				p = n - 1 - i
			}
			s := int(r.order[p])
			row := r.row(int32(s))
			for a := range row {
				if to := nextOf(st, s, a); to >= 0 {
					if d := math.Abs(val[to] - row[a]); d > maxErr {
						maxErr = d
					}
				}
			}
			val[s] = r.rewards[s] + gamma*backup(s, true)
		}
		res.Sweeps, res.FinalErr = sweep+1, maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// nextOf returns the state action a of state s leads to in st, a whole or
// a growing structure, or −1 when it is infeasible there.
func nextOf(st mover, s, a int) int {
	next, act := st.Moves(s)
	if k := slices.Index(act, uint8(a)); k >= 0 {
		return int(next[k])
	}
	return -1
}

// mover is a structure's move lists.
type mover interface {
	Moves(s int) ([]int32, []uint8)
}

// TestRegionMatchesSlab steps the region in lockstep with slabRegion, the
// slab region it replaced, and requires every read of either to be equal bit
// for bit: the row an agent's choice reads, the rows both maxValue reads
// around a retrain read (so qDelta), the retrain's BatchResult, every row
// held and the sample table — on an agent tuning the bowl system with and
// without a policy, and on every trail TestRegionMatchesReference measures.
// Each run goes on after a restore from the exported state, again after a
// restore from the slab region's rows (a version-1 snapshot), and after a
// policy switch.
func TestRegionMatchesSlab(t *testing.T) {
	for name, p := range map[string]*Policy{"seeded": bowlPolicy(t, bowlTargets, "slab"), "cold": nil} {
		t.Run("bowl/"+name, func(t *testing.T) { checkAgentMatchesSlab(t, p) })
	}
	for name, space := range shippedSpaces() {
		// The trails of TestRegionMatchesReference, drawn from the same stream.
		rng := sim.NewRNG(0x9e61)
		def := space.DefaultConfig()
		low, high := cornerConfig(space, false), cornerConfig(space, true)
		var scattered, corrupt []string
		for i := 0; i < 12; i++ {
			key := randomConfig(space, rng).Key()
			scattered = append(scattered, key, key)
		}
		for _, key := range walkTrail(space, def, 8, rng) {
			corrupt = append(corrupt, "garbage", key, "", "1,2", "0"+key, "+"+key)
		}
		trails := map[string][]string{
			"walk-default": walkTrail(space, def, 30, rng),
			"walk-low":     walkTrail(space, low, 20, rng),
			"walk-high":    walkTrail(space, high, 20, rng),
			"corners":      {low.Key(), high.Key(), low.Key(), def.Key()},
			"scattered":    scattered,
			"corrupt":      corrupt,
		}
		for tname, trail := range trails {
			t.Run(name+"/"+tname, func(t *testing.T) { checkTrailMatchesSlab(t, space, trail) })
		}
	}
}

// slabMax is what Agent.maxValue reads at a state the slab region holds: the
// largest value of its row, over every action.
func slabMax(o *slabRegion, ord uint64) float64 {
	row := o.held(ord)
	best := row[0]
	for _, v := range row[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// sameRow fails unless got and want are both nil or equal bit for bit.
func sameRow(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: row %v, the slab region's %v", what, got, want)
	}
	for a := range want {
		if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
			t.Fatalf("%s: action %d holds %v, the slab region's %v", what, a, got[a], want[a])
		}
	}
}

// sameExport fails unless r holds the rows o does and exports the samples
// it does, bit for bit.
func sameExport(t *testing.T, what string, r *region, o *slabRegion) {
	t.Helper()
	var st AgentState
	if err := r.export(&st); err != nil {
		t.Fatal(err)
	}
	wantRows, wantSamples := o.export()
	if diff := sameRows(r, wantRows); diff != "" {
		t.Fatalf("%s: %s", what, diff)
	}
	if samples := st.Samples; len(samples) != len(wantSamples) {
		t.Fatalf("%s: %d samples exported, the slab region %d", what, len(samples), len(wantSamples))
	}
	for key, want := range wantSamples {
		if got, ok := st.Samples[key]; !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: sample %s is %v, the slab region's %v", what, key, got, want)
		}
	}
}

// sameSolve fails unless two retrains ended alike, bit for bit.
func sameSolve(t *testing.T, what string, got, want mdp.BatchResult, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || got.Sweeps != want.Sweeps || got.Converged != want.Converged ||
		math.Float64bits(got.FinalErr) != math.Float64bits(want.FinalErr) {
		t.Fatalf("%s: retrain %+v (%v), the slab region's %+v (%v)", what, got, gotErr, want, wantErr)
	}
}

// checkAgentMatchesSlab steps an agent over the bowl system the way Step
// learns — the ε-greedy choice, recording the measurement, maxValue, the
// retrain, maxValue again — beside a slab region fed the same measurements,
// then restores a second agent from the first agent's exported state, and a
// slab region from the rows it held, and steps on; then does the same with
// a third agent restored from those rows as a version-1 snapshot, switches
// its policy and steps on again.
func checkAgentMatchesSlab(t *testing.T, p *Policy) {
	opts := DefaultOptions()
	opts.Online.Epsilon = 0.3
	newAgent := func() *Agent {
		a, err := NewAgent(newBowlSystem(bowlTargets), AgentOptions{Options: opts, Policy: p, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := newAgent()
	var o *slabRegion
	run := func(phase string, steps int) {
		for i := range steps {
			what := fmt.Sprintf("%s step %d", phase, i)
			cfg := a.cur.Clone()
			ord := a.space.Ordinal(cfg)
			sameRow(t, what+": choice", a.region.held(ord), o.held(ord))
			act := a.choose(cfg)
			next, _ := a.actions[act].Apply(a.space, cfg)
			if err := a.sys.Apply(context.Background(), next); err != nil {
				t.Fatal(err)
			}
			m, err := a.sys.Measure(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			nord := a.space.Ordinal(next)
			if o == nil {
				o = newSlabRegion(a.space, a.actions, a.policy, a.opts.SLASeconds)
			}
			if a.region == nil {
				a.region = newRegion(a.space, a.actions, a.policy, a.opts.SLASeconds, a.row)
			}
			a.region.record(nord, next, m.MeanRT)
			o.record(nord, next, m.MeanRT)
			sameRow(t, what+": before the retrain", a.region.held(nord), o.held(nord))
			before, oBefore := a.maxValue(nord, next), slabMax(o, nord)
			got, gotErr := a.retrain()
			want, wantErr := o.solve(mdp.BatchConfig{Params: a.opts.Batch, MaxSweeps: a.opts.BatchSweeps, Theta: a.opts.BatchTheta})
			sameSolve(t, what, got, want, gotErr, wantErr)
			sameRow(t, what+": after the retrain", a.region.held(nord), o.held(nord))
			if got, want := a.maxValue(nord, next)-before, slabMax(o, nord)-oBefore; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: qDelta %v, the slab region's %v", what, got, want)
			}
			sameExport(t, what, a.region, o)
			a.cur = next
		}
	}
	run("fresh", 25)

	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	rows, samples := o.export()
	v1 := *st
	v1.Version, v1.Prev, v1.Val, v1.Forward = 1, nil, nil, false
	v1.QTable = &mdp.QTableJSON{Actions: len(a.actions), Rows: rows}
	for _, st := range []*AgentState{st, &v1} {
		phase := fmt.Sprintf("restored from version %d", st.Version)
		a = newAgent()
		if err := a.RestoreState(st); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		o = newSlabRegion(a.space, a.actions, a.policy, a.opts.SLASeconds)
		if err := o.restore(v1.QTable, samples); err != nil {
			t.Fatal(err)
		}
		sameExport(t, phase, a.region, o)
		run(phase, 15)
	}

	a.ForcePolicy(bowlPolicy(t, []float64{100, 3, 15, 85}, "slab-switched"))
	o = nil
	run("switched", 15)
}

// checkTrailMatchesSlab measures trail the way checkRegionTrail does, a
// region and a slab region side by side, comparing the row read at the last
// state (a choice), at the measured state before and after each retrain,
// the retrain and the export. It goes on over the second half of the trail
// from a region restored from the first half's export and a slab region
// restored from its rows, again from a region restored from those rows (a
// version-1 snapshot), then over the first half again from fresh ones
// seeding other rows (a policy switch).
func checkTrailMatchesSlab(t *testing.T, space *config.Space, trail []string) {
	const sla = 2.0
	cfg := mdp.BatchConfig{Params: mdp.DefaultOnline(), MaxSweeps: 12, Theta: 0.01}
	pair := func(salt string) (*region, *slabRegion) {
		r, o := fakeRegion(space, sla), newSlabRegion(space, config.Actions(space), nil, sla)
		seedFake(r, salt)
		seeder := fakeSeeder(len(r.actions))
		o.seed = func(cfg config.Config, row []float64) { copy(row, seeder(salt+cfg.Key())) }
		o.predict = r.predict
		return r, o
	}
	run := func(phase string, r *region, o *slabRegion, keys []string) {
		last := uint64(0)
		for i, key := range keys {
			what := fmt.Sprintf("%s interval %d", phase, i)
			c, err := snapshotKey(space, key)
			if err != nil {
				continue
			}
			ord := space.Ordinal(c)
			sameRow(t, what+": choice", r.held(last), o.held(last))
			rt := 0.2 + float64(i%9)*0.3
			r.record(ord, c, rt)
			o.record(ord, c, rt)
			sameRow(t, what+": before the retrain", r.held(ord), o.held(ord))
			got, gotErr := r.solve(cfg)
			want, wantErr := o.solve(cfg)
			sameSolve(t, what, got, want, gotErr, wantErr)
			sameRow(t, what+": after the retrain", r.held(ord), o.held(ord))
			sameExport(t, what, r, o)
			last = ord
		}
	}
	half := len(trail) / 2
	r, o := pair("")
	run("fresh", r, o, trail[:half])

	var st AgentState
	if err := r.export(&st); err != nil {
		t.Fatal(err)
	}
	rows, samples := o.export()
	table := &mdp.QTableJSON{Actions: len(r.actions), Rows: rows}
	for version, restore := range map[string]func(*region) error{
		"values": func(to *region) error { return to.restore(&st) },
		"rows":   func(to *region) error { return to.restore(&AgentState{Samples: samples, QTable: table}) },
	} {
		r, o = pair("")
		if err := restore(r); err != nil {
			t.Fatalf("restored from its %s: %v", version, err)
		}
		if err := o.restore(table, samples); err != nil {
			t.Fatal(err)
		}
		sameExport(t, "restored from its "+version, r, o)
		run("restored from its "+version, r, o, trail[half:])
	}

	r, o = pair("switched:")
	run("switched", r, o, trail[:half])
}
