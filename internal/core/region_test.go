package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
)

// regionShape is the immutable retraining-region skeleton the agent rebuilt
// from its whole sample-key set each time it measured a new state, before the
// region grew in place: every sample plus its one-action frontier, densely
// indexed in discovery order. It is the oracle TestRegionMatchesReference
// holds the growing region to, and TestRegionShapeMatchesReference holds it in
// turn to the string-keyed referenceRegion.
type regionShape struct {
	space  *config.Space
	states []string
	// vals holds the parsed configuration of every state back to back:
	// state s occupies vals[s*space.Len():(s+1)*space.Len()] (see cfg).
	vals []int
	// structure carries the transition table and the feasible-action lists;
	// nil with structErr set for an empty region.
	structure *mdp.Structure
	structErr error
}

// cfg returns state s's configuration. The slice aliases the shape's storage.
func (sh *regionShape) cfg(s int) config.Config {
	n := sh.space.Len()
	return sh.vals[s*n : (s+1)*n : (s+1)*n]
}

// validSampleKeys returns the sample keys that parse, validate against the
// space and are the canonical rendering of their configuration, sorted, with
// their parsed configurations.
func validSampleKeys(space *config.Space, samples map[string]float64) ([]string, []config.Config) {
	keys := make([]string, 0, len(samples))
	for key := range samples {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	valid := keys[:0]
	cfgs := make([]config.Config, 0, len(keys))
	for _, key := range keys {
		cfg, err := config.ParseKey(key)
		if err != nil || space.Validate(cfg) != nil || cfg.Key() != key {
			continue
		}
		valid = append(valid, key)
		cfgs = append(cfgs, cfg)
	}
	return valid, cfgs
}

// newRegionShape builds the region skeleton from the valid sample keys by
// lattice ordinal: discovery is each sample key in sorted order followed by
// its feasible neighbours in action order, and the transition table is
// Space.Transitions over the discovered ordinals.
func newRegionShape(space *config.Space, keys []string, cfgs []config.Config) *regionShape {
	actions := config.Actions(space)
	sh := &regionShape{space: space}
	neighbour := func(ord uint64, a config.Action) uint64 {
		switch a.Dir {
		case config.Increase:
			return ord + space.Stride(a.ParamIndex)
		case config.Decrease:
			return ord - space.Stride(a.ParamIndex)
		}
		return ord
	}
	type origin struct{ sample, action int32 }
	bound := len(keys) * len(actions)
	byOrd := make(map[uint64]int32, bound)
	ords := make([]uint64, 0, bound)
	from := make([]origin, 0, bound)
	for i, cfg := range cfgs {
		ord := space.Ordinal(cfg)
		for ai, a := range actions {
			if !a.Feasible(space, cfg) {
				continue
			}
			next := neighbour(ord, a)
			if _, seen := byOrd[next]; seen {
				continue
			}
			byOrd[next] = int32(len(ords))
			ords = append(ords, next)
			from = append(from, origin{sample: int32(i), action: int32(ai)})
		}
	}
	n := space.Len()
	sh.states = make([]string, len(ords))
	sh.vals = make([]int, 0, len(ords)*n)
	for s, o := range from {
		sh.vals = append(sh.vals, cfgs[o.sample]...)
		a := actions[o.action]
		if a.Dir == config.Keep {
			sh.states[s] = keys[o.sample]
			continue
		}
		cfg := sh.cfg(s)
		cfg[a.ParamIndex] += int(a.Dir) * space.Def(a.ParamIndex).Step
		sh.states[s] = cfg.Key()
	}
	trans := space.Transitions(nil, ords, func(ord uint64) int32 {
		if t, in := byOrd[ord]; in {
			return t
		}
		return -1
	})
	sh.structure, sh.structErr = mdp.NewStructureFromTransitions(sh.states, len(actions), trans)
	return sh
}

// rewards binds one interval's rewards to the shape, by dense index:
// measurements where available, predict elsewhere (nil: the SLA-neutral 0).
func (sh *regionShape) rewards(samples map[string]float64, predict func(config.Config) float64, sla float64) []float64 {
	rewards := make([]float64, len(sh.states))
	for s, key := range sh.states {
		if rt, ok := samples[key]; ok {
			rewards[s] = sla - rt
		} else if predict != nil {
			rewards[s] = sla - predict(sh.cfg(s))
		}
	}
	return rewards
}

// referenceRegion is the string-keyed region builder newRegionShape replaced,
// kept as the test oracle: states are identified by their rendered key, every
// (state, action) probe clones the configuration through Action.Apply and
// renders the successor's key, and the transition table is resolved through
// the key index. It is the definition of the region's discovery order.
type referenceRegion struct {
	actions int
	states  []string
	cfgs    []config.Config
	next    []int32
}

func newReferenceRegion(space *config.Space, keys []string, cfgs []config.Config) *referenceRegion {
	actions := config.Actions(space)
	ref := &referenceRegion{actions: len(actions)}
	index := make(map[string]int)
	add := func(key string, cfg config.Config) {
		if _, ok := index[key]; ok {
			return
		}
		index[key] = len(ref.states)
		ref.states = append(ref.states, key)
		ref.cfgs = append(ref.cfgs, cfg)
	}
	for i, key := range keys {
		add(key, cfgs[i])
		for _, a := range actions {
			if next, ok := a.Apply(space, cfgs[i]); ok {
				add(next.Key(), next)
			}
		}
	}
	ref.next = make([]int32, len(ref.states)*len(actions))
	for s := range ref.states {
		for ai, a := range actions {
			ref.next[s*len(actions)+ai] = -1
			next, ok := a.Apply(space, ref.cfgs[s])
			if !ok {
				continue
			}
			if t, in := index[next.Key()]; in {
				ref.next[s*len(actions)+ai] = int32(t)
			}
		}
	}
	return ref
}

// The reference is an mdp.Model so mdp.NewStructure can derive the
// feasible-action lists from it the way the old lazily-built path did.
func (r *referenceRegion) States() []string { return r.states }
func (r *referenceRegion) Actions() int     { return r.actions }
func (r *referenceRegion) NextIndex(s, a int) int {
	return int(r.next[s*r.actions+a])
}
func (r *referenceRegion) RewardIndex(int) float64 { return 0 }

// walkTrail returns the keys an n-state random walk from start visits, in
// visit order with repeats: the shape of an agent's measurement history.
func walkTrail(space *config.Space, start config.Config, n int, rng *sim.RNG) []string {
	actions := config.Actions(space)
	trail := []string{start.Key()}
	seen := map[string]bool{start.Key(): true}
	cur := start
	for len(seen) < n {
		if next, ok := actions[rng.Intn(len(actions))].Apply(space, cur); ok {
			cur = next
			trail = append(trail, cur.Key())
			seen[cur.Key()] = true
		}
	}
	return trail
}

// walkSamples returns the sample table of an n-state random walk from start:
// consecutive samples are lattice neighbours and their frontiers overlap
// heavily.
func walkSamples(space *config.Space, start config.Config, n int, rng *sim.RNG) map[string]float64 {
	samples := make(map[string]float64)
	for _, key := range walkTrail(space, start, n, rng) {
		samples[key] = 1
	}
	return samples
}

// cornerConfig is the lattice corner with every parameter at its minimum
// (high false) or maximum (high true).
func cornerConfig(space *config.Space, high bool) config.Config {
	cfg := make(config.Config, space.Len())
	for i, d := range space.Defs() {
		cfg[i] = d.Min
		if high {
			cfg[i] = d.Max
		}
	}
	return cfg
}

func randomConfig(space *config.Space, rng *sim.RNG) config.Config {
	cfg := make(config.Config, space.Len())
	for i, d := range space.Defs() {
		cfg[i] = d.Value(rng.Intn(d.Levels()))
	}
	return cfg
}

// shippedSpaces are the configuration spaces the repository ships.
func shippedSpaces() map[string]*config.Space {
	return map[string]*config.Space{
		"default":   config.Default(),
		"admission": config.WithAdmission(),
		"capacity":  config.WithCapacity(),
	}
}

// TestRegionShapeMatchesReference pins the ordinal-indexed builder to the
// string-keyed one it replaced: same states in the same order, same parsed
// configurations, same transition for every (state, action), same
// feasible-action lists — on every shipped space and on sample sets chosen to
// hit the lattice edges, a lone sample, overlapping frontiers and keys that
// must be skipped.
func TestRegionShapeMatchesReference(t *testing.T) {
	for name, space := range shippedSpaces() {
		rng := sim.NewRNG(0x5ea1)
		def := space.DefaultConfig()
		low, high := cornerConfig(space, false), cornerConfig(space, true)
		// Two samples two steps apart share the state between them as a
		// neighbour; two adjacent samples are each other's neighbours.
		up := config.Action{ParamIndex: 0, Dir: config.Increase}
		adjacent, _ := up.Apply(space, def)
		twoAway, _ := up.Apply(space, adjacent)

		scattered := make(map[string]float64)
		for i := 0; i < 20; i++ {
			scattered[randomConfig(space, rng).Key()] = 1
		}
		cases := map[string]map[string]float64{
			"single":       {def.Key(): 1},
			"corner-low":   {low.Key(): 1},
			"corner-high":  {high.Key(): 1},
			"both-corners": {low.Key(): 1, high.Key(): 1},
			"adjacent":     {def.Key(): 1, adjacent.Key(): 1},
			"two-away":     {def.Key(): 1, twoAway.Key(): 1},
			"scattered":    scattered,
			"walk-33":      walkSamples(space, def, 33, rng),
			"walk-corner":  walkSamples(space, low, 25, rng),
			"walk-random":  walkSamples(space, randomConfig(space, rng), 40, rng),
			"empty":        {},
			// The set TestRegionModelSkipsCorruptKeys covers, plus keys that
			// parse onto the lattice but are not their configuration's own
			// rendering (leading zero, explicit sign).
			"corrupt": {"garbage": 1, "1,2": 2, "0" + def.Key(): 3, "+" + def.Key(): 4},
			"corrupt-mixed": {"garbage": 1, "": 2, "0" + def.Key(): 3,
				def.Key(): 4, high.Key(): 5},
		}
		for cname, samples := range cases {
			t.Run(name+"/"+cname, func(t *testing.T) {
				keys, cfgs := validSampleKeys(space, samples)
				ref := newReferenceRegion(space, keys, cfgs)
				sh := newRegionShape(space, keys, cfgs)
				compareToReference(t, sh, ref)
			})
		}
	}
}

func compareToReference(t *testing.T, sh *regionShape, ref *referenceRegion) {
	t.Helper()
	if !slices.Equal(sh.states, ref.states) {
		t.Fatalf("state order differs:\n  got %v\n want %v", sh.states, ref.states)
	}
	if len(ref.states) == 0 {
		if sh.structure != nil || sh.structErr == nil {
			t.Fatalf("empty region: structure %v, err %v; want nil and an error", sh.structure, sh.structErr)
		}
		return
	}
	for s, want := range ref.cfgs {
		if got := sh.cfg(s); !got.Equal(want) {
			t.Fatalf("state %d (%s): config %v, want %v", s, ref.states[s], got, want)
		}
	}
	if sh.structErr != nil {
		t.Fatal(sh.structErr)
	}
	for s := range ref.states {
		for a := 0; a < ref.actions; a++ {
			if got, want := nextOf(sh.structure, s, a), ref.NextIndex(s, a); got != want {
				t.Fatalf("state %d (%s) action %d: next %d, want %d", s, ref.states[s], a, got, want)
			}
		}
	}
	// The whole structure — transitions, per-state offsets and flattened
	// feasible-action lists — equals what mdp.NewStructure derives from the
	// reference through NextIndex, the path the old lazy build took.
	want, err := mdp.NewStructure(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sh.structure, want) {
		t.Fatal("mdp.Structure (transitions / feasible-action lists) differs from the reference's")
	}
}

// fakePredict stands in for Policy.PredictRT: deterministic and different at
// neighbouring states, so a prior bound to the wrong state shows.
func fakePredict(cfg config.Config) float64 {
	var sum int
	for i, v := range cfg {
		sum += (i + 3) * v
	}
	return float64(sum%97) / 32
}

// fakeSeeder stands in for a policy's seeder: a deterministic row per key, so a
// row seeded for the wrong state shows.
func fakeSeeder(actions int) mdp.Seeder {
	return func(state string) []float64 {
		var h uint32
		for _, c := range state {
			h = h*31 + uint32(c)
		}
		row := make([]float64, actions)
		for a := range row {
			row[a] = float64((h>>a)%13) - 6
		}
		return row
	}
}

// emptyRegion returns an empty policy-less region over space, with a row
// buffer of its own.
func emptyRegion(space *config.Space, sla float64) *region {
	actions := config.Actions(space)
	return newRegion(space, actions, nil, sla, make([]float64, len(actions)))
}

// fakeRegion returns an empty region seeding its rows from fakeSeeder and its
// reward priors from fakePredict, in place of a policy's.
func fakeRegion(space *config.Space, sla float64) *region {
	r := emptyRegion(space, sla)
	seedFake(r, "")
	r.predict = fakePredict
	return r
}

// seedFake has r seed the rows fakeSeeder yields for salt + a state's key.
func seedFake(r *region, salt string) {
	seeder := fakeSeeder(len(r.actions))
	var rows [][]float64
	r.seedKey = func(cfg config.Config) int32 {
		rows = append(rows, seeder(salt+cfg.Key()))
		return int32(len(rows) - 1)
	}
	r.seed = func(key int32, a int) float64 { return rows[key][a] }
}

// recordKey records rt at the state key names, as an agent records what it
// measured; a key that is not the canonical key of a configuration of the
// space names no state, and is skipped.
func recordKey(r *region, key string, rt float64) {
	if cfg, err := snapshotKey(r.space, key); err == nil {
		r.record(r.space.Ordinal(cfg), cfg, rt)
	}
}

// TestRegionMatchesReference holds the growing region to newRegionShape, the
// rebuild-from-scratch builder it replaced, after every sample insert: mapped
// through its sweep order, the region has the same states, the same
// mdp.Structure, the same rewards (measurement where sampled, prediction
// elsewhere) and samples. Its slab retrained every interval stays
// bit-identical to a Q-table retrained over the rebuilt shape, and a region
// restored from the final sample table and values — what RestoreState does —
// equals the grown one, as does one restored from its rows (a version-1
// snapshot). The trails cover every shipped space: random walks
// from the default and both lattice corners, repeated keys, scattered states,
// and corrupt keys among valid ones.
func TestRegionMatchesReference(t *testing.T) {
	for name, space := range shippedSpaces() {
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
			t.Run(name+"/"+tname, func(t *testing.T) { checkRegionTrail(t, space, trail) })
		}
	}
}

// checkRegionTrail measures trail the way an agent does — each key folded
// into the sample table, a first visit growing the region, a retrain every
// interval — beside a Q-table retrained over a shape rebuilt from the sample
// keys every interval, the path the region replaced, its rows bound into a
// slab for the solve.
func checkRegionTrail(t *testing.T, space *config.Space, trail []string) {
	t.Helper()
	const sla = 2.0
	actions := len(config.Actions(space))
	rebuilt := mdp.NewQTable(actions, 0.25)
	rebuilt.SetShared(mdp.NewSharedRows(actions, fakeSeeder(actions)))
	cfg := mdp.BatchConfig{Params: mdp.DefaultOnline(), MaxSweeps: 12, Theta: 0.01}
	samples := make(map[string]float64)
	r := fakeRegion(space, sla)
	for i, key := range trail {
		rt := 0.2 + float64(i%9)*0.3
		if old, ok := samples[key]; ok {
			samples[key] = 0.5*old + 0.5*rt
		} else {
			samples[key] = rt
		}
		recordKey(r, key, rt)
		sh := compareRegion(t, r, samples)
		if sh.structErr != nil {
			continue
		}
		got, err := r.solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := rebuilt.OwnRows(sh.states)
		slab := make([]float64, len(rows)*actions)
		for s, row := range rows {
			copy(slab[s*actions:], row)
		}
		want, err := mdp.Solve(slab, sh.structure, sh.rewards(samples, fakePredict, sla), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s, row := range rows {
			copy(row, slab[s*actions:])
		}
		if got != want {
			t.Fatalf("interval %d: solve %+v over the region, %+v over the rebuilt shape", i, got, want)
		}
		if diff := sameRows(r, rebuilt.JSON().Rows); diff != "" {
			t.Fatalf("interval %d: %s", i, diff)
		}
	}
	valid := make(map[string]float64)
	keys, _ := validSampleKeys(space, samples)
	for _, key := range keys {
		valid[key] = samples[key]
	}
	var st AgentState
	if err := r.export(&st); err != nil {
		t.Fatal(err)
	}
	held := heldRows(r)
	for version, restore := range map[string]func(*region) error{
		"values": func(to *region) error { return to.restore(&st) },
		"rows": func(to *region) error {
			return to.restore(&AgentState{Samples: valid, QTable: &mdp.QTableJSON{Actions: actions, Rows: held}})
		},
	} {
		restored := fakeRegion(space, sla)
		if err := restore(restored); err != nil {
			t.Fatalf("restored from its %s: %v", version, err)
		}
		compareRegion(t, restored, samples)
		if diff := sameRows(restored, held); diff != "" {
			t.Fatalf("restored from its %s: %s", version, diff)
		}
	}
}

// heldRows renders every row r holds by state key, sharing no storage with
// it: what a version-1 snapshot held.
func heldRows(r *region) map[string][]float64 {
	rows := map[string][]float64{}
	if r == nil {
		return rows
	}
	cfg := make(config.Config, r.space.Len())
	for _, ord := range r.ords {
		rows[r.space.At(ord, cfg).Key()] = slices.Clone(r.held(ord))
	}
	return rows
}

// sameRows reports the first difference between the rows r holds and want,
// by key, bit for bit, or "" when they are identical. A zero row of want
// may stand for a state r lacks: what an agent without a policy reads there.
func sameRows(r *region, want map[string][]float64) string {
	got := heldRows(r)
	for key := range got {
		if _, ok := want[key]; !ok {
			return fmt.Sprintf("the region holds the row of %s, which is not wanted", key)
		}
	}
	for key, row := range want {
		g, ok := got[key]
		if !ok && slices.ContainsFunc(row, func(v float64) bool { return v != 0 }) {
			return fmt.Sprintf("the region lacks the row of %s", key)
		}
		for a := 0; ok && a < len(row); a++ {
			if math.Float64bits(g[a]) != math.Float64bits(row[a]) {
				return fmt.Sprintf("state %s action %d: %v, want %v", key, a, g[a], row[a])
			}
		}
	}
	return ""
}

// compareRegion binds r — compiling it first if a sample joined — and
// requires it, mapped through its sweep order, to equal the shape rebuilt
// from the sample keys, which it returns.
func compareRegion(t *testing.T, r *region, samples map[string]float64) *regionShape {
	t.Helper()
	keys, cfgs := validSampleKeys(r.space, samples)
	sh := newRegionShape(r.space, keys, cfgs)
	err := r.bind()
	if sh.structErr != nil {
		if err == nil {
			t.Fatal("an empty region bound without an error")
		}
		return sh
	}
	if err != nil {
		t.Fatal(err)
	}
	// Position d of the sweep holds state order[d] (the structure sweeps the
	// region's order); pos inverts it.
	st, order, actions := r.structure, r.order, len(r.actions)
	if len(order) != len(sh.states) || len(r.ords) != len(sh.states) {
		t.Fatalf("the region holds %d states and sweeps %d, want %d", len(r.ords), len(order), len(sh.states))
	}
	ordOf := make([]uint64, len(order))
	for k, ord := range r.ords {
		ordOf[r.ordIdx[k]] = ord
	}
	key := func(s int32) string { return r.space.At(ordOf[s], make(config.Config, r.space.Len())).Key() }
	pos := make([]int, len(order))
	states := make([]string, len(order))
	for d, s := range order {
		pos[s], states[d] = d, key(s)
	}
	if !slices.Equal(states, sh.states) {
		t.Fatalf("sweep order differs:\n  got %v\n want %v", states, sh.states)
	}
	trans := make([]int32, len(order)*actions)
	for d, s := range order {
		for a := 0; a < actions; a++ {
			to := nextOf(st, int(s), a)
			if to >= 0 {
				to = pos[to]
			}
			trans[d*actions+a] = int32(to)
		}
	}
	swept, err := mdp.NewStructureFromTransitions(states, actions, trans)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(swept, sh.structure) {
		t.Fatal("mdp.Structure in sweep order differs from the rebuilt shape's")
	}
	want := sh.rewards(samples, r.predict, r.sla)
	for d, s := range order {
		if got := r.rewards[s]; got != want[d] {
			t.Fatalf("state %s: reward %v, want %v", states[d], got, want[d])
		}
	}
	sampled := make([]string, len(r.samples))
	for i, ord := range r.samples {
		sampled[i] = r.space.At(ord, make(config.Config, r.space.Len())).Key()
		if s := r.sampleIdx[i]; ordOf[s] != ord || r.rt[i] != samples[sampled[i]] {
			t.Fatalf("sample %s indexes state %s (rt %v; want %v)", sampled[i], key(s), r.rt[i], samples[sampled[i]])
		}
	}
	if !slices.Equal(sampled, keys) {
		t.Fatalf("samples %v, want %v", sampled, keys)
	}
	if len(r.sampleIdx) != len(keys) || len(r.rt) != len(keys) {
		t.Fatalf("%d sample states and %d response times, want %d", len(r.sampleIdx), len(r.rt), len(keys))
	}
	return sh
}

// steppedAgent returns an agent warm-started from the bowl policy after steps
// intervals on the bowl system.
func steppedAgent(tb testing.TB, steps int) *Agent {
	tb.Helper()
	a, err := NewAgent(newBowlSystem(bowlTargets), AgentOptions{Policy: bowlPolicy(tb, bowlTargets, "stepped"), Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	return a
}

// TestRetrainAllocFree: a step at a state the agent holds, measuring no new
// state — the ε-greedy choice, recording the measurement and a retrain that
// binds the interval's rewards and solves over the slab — allocates nothing.
func TestRetrainAllocFree(t *testing.T) {
	a := steppedAgent(t, 20)
	cfg := a.cur.Clone()
	ord := a.space.Ordinal(cfg)
	if a.region.index(ord) < 0 {
		t.Fatal("the agent does not hold the state it last measured")
	}
	rts := [2]float64{0.4, 1.6}
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		i++
		benchSink += a.choose(cfg)
		a.region.record(ord, cfg, rts[i%2])
		if _, err := a.retrain(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a step without a new state allocates %.1f times, want 0", allocs)
	}
}

// TestFirstVisitAllocs: a first visit allocates only for the amortized
// growth of the region's buffers — no key, row or map entry per state —
// so neither the count nor the bytes per visit grow with the region.
func TestFirstVisitAllocs(t *testing.T) {
	space := config.Default()
	var fresh []config.Config
	seen := make(map[string]bool)
	for _, key := range walkTrail(space, space.DefaultConfig(), 200, sim.NewRNG(41)) {
		if !seen[key] {
			seen[key] = true
			cfg, err := config.ParseKey(key)
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, cfg)
		}
	}
	r := emptyRegion(space, 2)
	r.predict = fakePredict
	for _, cfg := range fresh[:40] {
		r.record(space.Ordinal(cfg), cfg, 1)
	}
	if err := r.bind(); err != nil {
		t.Fatal(err)
	}
	visits := fresh[40:]
	ords := make([]uint64, len(visits))
	for k, cfg := range visits {
		ords[k] = space.Ordinal(cfg)
	}
	held, i := len(r.rewards), 0
	visit := func() {
		r.record(ords[i], visits[i], 1)
		i++
		if err := r.bind(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(len(visits)-1, visit)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides its runs.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(i)
	joined := float64(len(r.rewards)-held) / float64(i)
	// Per visit: at most 2 allocations, amortized, for buffer growth, and
	// 3 500 bytes. A joining state keeps no row: only its feasible moves
	// with their actions, its reward, its ordinal index and its place in the
	// sweep order, the join's and the compile's scratch being borrowed. A
	// visit joins ≈12, and with the copies made while the buffers grow that
	// comes to ≈2 850 bytes (≈3 030 under -race). Keeping a row per joining
	// state exceeds the bound: the row slab this region replaced took
	// ≈11 300, a per-region scratch and response time per state ≈3 200.
	const bound = 3500.0
	if allocs > 2 {
		t.Errorf("a first visit allocates %.1f times (%.1f joining states on average), want at most 2", allocs, joined)
	}
	if bytes > bound {
		t.Errorf("a first visit allocates %.0f bytes (%.1f joining states on average), want at most %.0f",
			bytes, joined, bound)
	}
	t.Logf("%.1f allocations and %.0f bytes per first visit, %.1f joining states on average, region of %d states",
		allocs, bytes, joined, len(r.rewards))
}

// TestChooseMatchesSelectAction holds the agent's ε-greedy choice to
// mdp.Learner.SelectAction draw for draw: a learner over a Q-table holding
// the rows the agent holds — seeded by the policy's SeedRow elsewhere —
// with its RNG in the agent's exploration state picks the same action at
// held and unheld states, with and without a policy. Without one, the
// learner ends up holding zero rows for the unheld states it read, which
// the agent reads there without keeping.
func TestChooseMatchesSelectAction(t *testing.T) {
	for name, p := range map[string]*Policy{"seeded": bowlPolicy(t, bowlTargets, "choose"), "cold": nil} {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Online.Epsilon = 0.3
			a, err := NewAgent(newBowlSystem(bowlTargets), AgentOptions{Options: opts, Policy: p, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 15; i++ {
				if _, err := a.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			q := mdp.NewQTable(len(a.actions), 0)
			if p != nil {
				q.SetShared(mdp.NewSharedRows(len(a.actions), seeder(p)))
			}
			rows := heldRows(a.region)
			held := make([]config.Config, 0, len(rows))
			for key, row := range rows {
				copy(q.Row(key), row)
				cfg, err := config.ParseKey(key)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, cfg)
			}
			slices.SortFunc(held, func(x, y config.Config) int { return slices.Compare(x, y) })
			l, err := mdp.NewLearner(q, a.opts.Online, sim.RestoreRNG(a.explore.State()))
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(7)
			for i := 0; i < 400; i++ {
				cfg := randomConfig(a.space, rng)
				if i%2 == 0 {
					cfg = held[rng.Intn(len(held))]
				}
				var feasible []int
				for k, act := range a.actions {
					if act.Feasible(a.space, cfg) {
						feasible = append(feasible, k)
					}
				}
				if got, want := a.choose(cfg), l.SelectAction(cfg.Key(), feasible); got != want {
					t.Fatalf("choice %d at %s: action %d, SelectAction %d", i, cfg.Key(), got, want)
				}
			}
			if diff := sameRows(a.region, q.JSON().Rows); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// TestAgentRetainedBytes bounds what a learning agent keeps between steps:
// bowl agents over one space, stepped for a fleet's warm-up and timed
// rounds, then collected twice, hold at most retainedPerState bytes of live
// heap per state their regions hold — the region, the structure, the agent
// and its system together. What only one solve, compile or record works in
// comes from shared scratch and is not counted: an agent that keeps its own
// (two spare value vectors, a second positions vector, a response time per
// state, a record scratch, a second row buffer) and its own action set
// retains ≈194 bytes per state here, one that does not ≈131. An agent
// restored from its snapshot, in either version, keeps what the
// uninterrupted one does; a restore that kept a version-1 snapshot's rows
// as the rows its states joined with held ≈311 bytes per state here.
func TestAgentRetainedBytes(t *testing.T) {
	const agents, steps, retainedPerState = 64, 33, 160.0
	policy := bowlPolicy(t, bowlTargets, "retained")
	space := config.Default()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	newAgent := func(seed int) *Agent {
		sys := &bowlSystem{space: space, cfg: space.DefaultConfig(), targets: bowlTargets}
		a, err := NewAgent(sys, AgentOptions{Policy: policy, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	restore := func(seed int, st *AgentState) *Agent {
		loaded, err := LoadAgentState(bytes.NewReader(encode(t, st)))
		if err != nil {
			t.Fatal(err)
		}
		a := newAgent(seed)
		if err := a.RestoreState(loaded); err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, how := range []string{"uninterrupted", "restored from version 2", "restored from version 1"} {
		t.Run(how, func(t *testing.T) {
			before := live()
			held := make([]*Agent, agents)
			for i := range held {
				a := newAgent(i + 1)
				for range steps {
					if _, err := a.Step(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				switch how {
				case "restored from version 2":
					st, err := a.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					a = restore(i+1, st)
				case "restored from version 1":
					a = restore(i+1, versionOne(t, a))
				}
				held[i] = a
			}
			after := live()
			states := 0
			for _, a := range held {
				states += len(a.region.rewards)
			}
			perState := float64(int64(after)-int64(before)) / float64(states)
			t.Logf("%d agents after %d steps hold %d states, %.1f bytes of live heap per state", agents, steps, states, perState)
			if perState > retainedPerState {
				t.Errorf("%.1f bytes of live heap per held state, want at most %.0f", perState, retainedPerState)
			}
			runtime.KeepAlive(held)
		})
	}
}
