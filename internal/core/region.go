package core

import (
	"sort"
	"strings"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
)

// regionShape is the immutable skeleton of the bounded configuration MDP the
// agent retrains over: every state it has measured plus the one-action
// frontier around them, densely indexed in discovery order, with the
// per-action transition table resolved once at construction. The shape
// depends only on the set of measured state keys — not on the measured
// values — so it is rebuilt only when a new state is visited, reused across
// the retraining calls in between, and interned per policy so tenants tuning
// the same context share one copy (their early trajectories visit the same
// states).
//
// The full Table 1 lattice has ~1.9·10⁸ states, so sweeping all of it — as a
// literal reading of Algorithm 1 would — is infeasible for either the paper's
// testbed or this reproduction; the bounded region keeps retraining O(visited
// states) while the Seeder generalizes the offline policy everywhere else.
type regionShape struct {
	space  *config.Space
	states []string
	// vals holds the parsed configuration of every state back to back:
	// state s occupies vals[s*space.Len():(s+1)*space.Len()] (see cfg).
	vals []int
	// structure carries the transition table (the only copy) and the
	// feasible-action lists; nil with structErr set for an empty region.
	structure *mdp.Structure
	structErr error
}

// cfg returns state s's configuration. The slice aliases the shape's storage;
// callers must not mutate it.
func (sh *regionShape) cfg(s int) config.Config {
	n := sh.space.Len()
	return sh.vals[s*n : (s+1)*n : (s+1)*n]
}

// validSampleKeys returns the sample keys that parse, validate against the
// space and are the canonical rendering of their configuration, sorted, with
// their parsed configurations. The sorted order fixes the region's dense
// indices, hence the solver's sweep order. Canonical keys make state identity
// and lattice-point identity the same thing, which is what lets
// newRegionShape deduplicate states by ordinal.
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

// newRegionShape builds the region skeleton from the valid sample keys (as
// returned by validSampleKeys: sorted, parsed, validated, canonical).
//
// States are identified by their mixed-radix lattice ordinal while building:
// a neighbour is ordinal ± Stride(param), so discovery and the transition
// table (Space.Transitions over the discovered ordinals — a move leaving the
// region is infeasible) are integer arithmetic plus one map probe per (state,
// action), and a configuration is materialized (copied, its key rendered)
// once per state.
// Discovery order is each sample key in sorted order followed by its feasible
// neighbours in action order; it fixes the dense indices, hence the
// retraining sweep order, and changing it moves the solve's last bits.
func newRegionShape(space *config.Space, keys []string, cfgs []config.Config) *regionShape {
	actions := config.Actions(space)
	sh := &regionShape{space: space}
	// neighbour returns the ordinal a feasible action reaches from ord.
	neighbour := func(ord uint64, a config.Action) uint64 {
		switch a.Dir {
		case config.Increase:
			return ord + space.Stride(a.ParamIndex)
		case config.Decrease:
			return ord - space.Stride(a.ParamIndex)
		}
		return ord
	}

	// Discover the states. origin records how each was first reached: from
	// which sample, by which action. config.Actions lists Keep first, so a
	// sample discovers itself before any of its neighbours.
	type origin struct{ sample, action int32 }
	bound := len(keys) * len(actions)
	byOrd := make(map[uint64]int32, bound)
	ords := make([]uint64, 0, bound) // by dense index
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

	// Materialize keys and configurations, now that the count is known.
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

	trans := space.Transitions(ords, func(ord uint64) int32 {
		if t, in := byOrd[ord]; in {
			return t
		}
		return -1
	})
	sh.structure, sh.structErr = mdp.NewStructureFromTransitions(sh.states, len(actions), trans)
	return sh
}

// rewards binds one interval's rewards to the shape, by dense index:
// measurements where available, the policy's regression predictor elsewhere —
// which is how fresh observations propagate to neighbouring states during
// batch training (paper §4.2). predict may be nil, in which case frontier
// states fall back to the SLA-neutral reward 0. The shape's structure plus
// these rewards is what mdp.Solve retrains over.
func (sh *regionShape) rewards(samples map[string]float64,
	predict func(config.Config) float64, sla float64) []float64 {

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

// regionShapeCacheCap bounds the per-policy shape intern cache. Tenants of a
// context share shapes while their trajectories coincide (always true on the
// first intervals after a warm start); once histories diverge past the cap,
// shapes are built per agent without being published.
const regionShapeCacheCap = 64

// regionShapeFor returns the canonical shape for the sample-key set, interned
// on the policy so agents sharing the context share the skeleton (and its
// mdp.Structure). Safe for concurrent use.
func (p *Policy) regionShapeFor(samples map[string]float64) *regionShape {
	keys, cfgs := validSampleKeys(p.space, samples)
	ck := strings.Join(keys, "|")
	in := p.intern
	in.shapeMu.Lock()
	if sh, ok := in.shapes[ck]; ok {
		in.shapeMu.Unlock()
		return sh
	}
	in.shapeMu.Unlock()
	sh := newRegionShape(p.space, keys, cfgs)
	in.shapeMu.Lock()
	defer in.shapeMu.Unlock()
	if cur, ok := in.shapes[ck]; ok {
		return cur
	}
	if in.shapes == nil {
		in.shapes = make(map[string]*regionShape)
	}
	if len(in.shapes) < regionShapeCacheCap {
		in.shapes[ck] = sh
	}
	return sh
}
