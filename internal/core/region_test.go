package core

import (
	"reflect"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
)

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

// walkSamples returns the sample table of an n-step random walk from start:
// the shape of an agent's history, where consecutive samples are lattice
// neighbours and their frontiers overlap heavily.
func walkSamples(space *config.Space, start config.Config, n int, rng *sim.RNG) map[string]float64 {
	actions := config.Actions(space)
	samples := map[string]float64{start.Key(): 1}
	cur := start
	for len(samples) < n {
		if next, ok := actions[rng.Intn(len(actions))].Apply(space, cur); ok {
			cur = next
			samples[cur.Key()] = 1
		}
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

// TestRegionShapeMatchesReference pins the ordinal-indexed builder to the
// string-keyed one it replaced: same states in the same order, same parsed
// configurations, same transition for every (state, action), same
// feasible-action lists — on every shipped space and on sample sets chosen to
// hit the lattice edges, a lone sample, overlapping frontiers and keys that
// must be skipped.
func TestRegionShapeMatchesReference(t *testing.T) {
	spaces := map[string]*config.Space{
		"default":   config.Default(),
		"admission": config.WithAdmission(),
		"capacity":  config.WithCapacity(),
	}
	for name, space := range spaces {
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
			if got, want := sh.structure.Next(s, a), ref.NextIndex(s, a); got != want {
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

// benchRegionSamples is the sample set of a 33-interval agent history (the
// fleet-steady workload's length): 33 distinct measured states, 389 region
// states.
func benchRegionSamples(space *config.Space) ([]string, []config.Config) {
	samples := walkSamples(space, space.DefaultConfig(), 33, sim.NewRNG(33))
	return validSampleKeys(space, samples)
}
