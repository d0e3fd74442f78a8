package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/regression"
)

// groupDef is the lattice of one parameter group: the intersection of its
// members' ranges at the finest member step.
type groupDef struct {
	group   config.Group
	members []int // parameter indices in the space
	min     int
	max     int
	step    int
}

func (g groupDef) levels() int { return (g.max-g.min)/g.step + 1 }

func (g groupDef) clamp(v int) int {
	if v <= g.min {
		return g.min
	}
	if v >= g.max {
		return g.max
	}
	return g.min + (v-g.min+g.step/2)/g.step*g.step
}

// groupDefs derives the group lattices of a space, in config.Groups() order.
func groupDefs(space *config.Space) ([]groupDef, error) {
	members := config.GroupMembers(space)
	var defs []groupDef
	for _, g := range config.Groups() {
		idx := members[g]
		if len(idx) == 0 {
			continue
		}
		d := groupDef{
			group:   g,
			members: idx,
			min:     space.Def(idx[0]).Min,
			max:     space.Def(idx[0]).Max,
			step:    space.Def(idx[0]).Step,
		}
		for _, i := range idx[1:] {
			pd := space.Def(i)
			if pd.Min > d.min {
				d.min = pd.Min
			}
			if pd.Max < d.max {
				d.max = pd.Max
			}
			if pd.Step < d.step {
				d.step = pd.Step
			}
		}
		if d.max < d.min {
			return nil, fmt.Errorf("core: group %s member ranges do not overlap", g)
		}
		// Align the top of the lattice to the step grid.
		d.max = d.min + (d.max-d.min)/d.step*d.step
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		return nil, errors.New("core: space has no groups")
	}
	return defs, nil
}

// groupKey renders group lattice values as a state key.
func groupKey(vals []int) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// groupLattice is the enumerated group lattice shared by policies and the
// offline training MDP: interned state-key strings plus the flattened-index
// geometry (strides, per-group level counts) needed to navigate the lattice
// without rebuilding key strings per visit. Groups are ordered as in defs;
// the last group varies fastest, matching the historical enumeration order.
type groupLattice struct {
	defs    []groupDef
	levels  []int
	strides []int
	keys    []string // interned groupKey per flattened index
}

func newGroupLattice(defs []groupDef) *groupLattice {
	l := &groupLattice{
		defs:    defs,
		levels:  make([]int, len(defs)),
		strides: make([]int, len(defs)),
	}
	total := 1
	for gi := len(defs) - 1; gi >= 0; gi-- {
		l.levels[gi] = defs[gi].levels()
		l.strides[gi] = total
		total *= l.levels[gi]
	}
	l.keys = make([]string, total)
	vals := make([]int, len(defs))
	var rec func(gi, idx int)
	rec = func(gi, idx int) {
		if gi == len(defs) {
			l.keys[idx] = groupKey(vals)
			return
		}
		d := defs[gi]
		for li := 0; li < l.levels[gi]; li++ {
			vals[gi] = d.min + li*d.step
			rec(gi+1, idx+li*l.strides[gi])
		}
	}
	rec(0, 0)
	return l
}

// value returns group gi's lattice value at flattened state index idx.
func (l *groupLattice) value(idx, gi int) int {
	return l.defs[gi].min + (idx/l.strides[gi])%l.levels[gi]*l.defs[gi].step
}

// Policy is an initial configuration policy for one system context: a
// regression predictor of the response-time surface plus a Q-table trained
// offline over the grouped sublattice (paper Algorithm 2). It seeds the
// online Q-table for unvisited states and supplies reward estimates for
// states without measurements.
type Policy struct {
	name  string
	space *config.Space
	defs  []groupDef
	lat   *groupLattice
	// paramGroup maps each parameter index to its position in defs.
	paramGroup []int
	q          *mdp.QTable
	quad       *regression.Quadratic
	sla        float64
	// floorRT guards against regression extrapolation below zero.
	floorRT float64
	// training is how the offline pass that produced q converged; zero for a
	// policy loaded from disk (it is not persisted).
	training mdp.BatchResult

	// intern holds the structure memoized across every agent warm-started
	// from this policy. It lives behind a pointer so a Policy value can be
	// copied (renamed store entries do this) without copying locks; copies
	// share the memo, which is correct — they share q and lat too.
	intern *policyIntern
}

// policyIntern is the per-policy shared-structure memo: the copy-on-write
// seeded row store (built on first SharedRows call) and interned retraining
// region skeletons keyed by sample-key set (see regionShapeFor).
type policyIntern struct {
	sharedOnce sync.Once
	shared     *mdp.SharedRows
	shapeMu    sync.Mutex
	shapes     map[string]*regionShape
}

// Name returns the policy's label (usually the context it was trained for).
func (p *Policy) Name() string { return p.name }

// Space returns the configuration space the policy covers.
func (p *Policy) Space() *config.Space { return p.space }

// SLA returns the SLA the policy was trained against.
func (p *Policy) SLA() float64 { return p.sla }

// PredictRT estimates the mean response time of a configuration from the
// fitted regression surface (a log-space quadratic; see LearnPolicy).
func (p *Policy) PredictRT(cfg config.Config) float64 {
	vec := p.groupVector(cfg)
	rt := math.Exp(p.quad.Eval(vec))
	if rt < p.floorRT {
		rt = p.floorRT
	}
	return rt
}

// groupVector projects a configuration onto per-group mean values in defs
// order.
func (p *Policy) groupVector(cfg config.Config) []float64 {
	vec := make([]float64, len(p.defs))
	for gi, d := range p.defs {
		var sum float64
		for _, i := range d.members {
			if i < len(cfg) {
				sum += float64(cfg[i])
			}
		}
		vec[gi] = sum / float64(len(d.members))
	}
	return vec
}

// groupStateIndex snaps a configuration onto the group lattice and returns
// its flattened index. It is the allocation-free core of the seeding hot
// path: the per-group mean, clamp and flatten are all done in registers, and
// the state-key string is served interned from the lattice.
func (p *Policy) groupStateIndex(cfg config.Config) int {
	idx := 0
	for gi, d := range p.defs {
		var sum float64
		for _, i := range d.members {
			if i < len(cfg) {
				sum += float64(cfg[i])
			}
		}
		v := d.clamp(int(math.Round(sum / float64(len(d.members)))))
		idx += (v - d.min) / d.step * p.lat.strides[gi]
	}
	return idx
}

// groupStateKey returns the interned state key of the configuration's group
// lattice point, without building a string.
func (p *Policy) groupStateKey(cfg config.Config) string {
	return p.lat.keys[p.groupStateIndex(cfg)]
}

// Seeder returns an mdp.Seeder that initializes a full-lattice Q row from
// the group-level policy: a full action touching parameter i inherits the
// group action's value for i's group; keep inherits keep.
func (p *Policy) Seeder() mdp.Seeder {
	nActions := 2*p.space.Len() + 1
	return func(state string) []float64 {
		cfg, err := config.ParseKey(state)
		if err != nil || len(cfg) != p.space.Len() {
			return nil
		}
		gRow := p.q.Row(p.groupStateKey(cfg))
		row := make([]float64, nActions)
		row[0] = gRow[0]
		for i := 0; i < p.space.Len(); i++ {
			gi := p.paramGroup[i]
			row[1+2*i] = gRow[1+2*gi] // increase
			row[2+2*i] = gRow[2+2*gi] // decrease
		}
		return row
	}
}

// SharedRows returns the policy's copy-on-write row store: seeded Q rows
// computed once (from Seeder) and served read-only to every agent table that
// installs it. Agents sharing a context thereby share the seeded structure —
// memory O(contexts) — while their own updates stay in private delta rows.
func (p *Policy) SharedRows() *mdp.SharedRows {
	p.intern.sharedOnce.Do(func() {
		p.intern.shared = mdp.NewSharedRows(2*p.space.Len()+1, p.Seeder())
	})
	return p.intern.shared
}

// Recommend returns the configuration the offline policy considers best: the
// group-lattice point minimizing the fitted response-time surface, expanded
// to a full configuration. This is policy initialization put to operational
// use — an agent deployed with an offline-trained policy applies its
// recommendation up front and lets online learning refine from there,
// instead of walking out of the vendor default one reconfiguration per
// measurement interval. Ties and the argmin are resolved in lattice
// enumeration order, so the recommendation is deterministic for a given
// trained policy.
func (p *Policy) Recommend() (config.Config, error) {
	best, bestRT := -1, 0.0
	vals := make([]int, len(p.defs))
	vec := make([]float64, len(p.defs))
	for idx := range p.lat.keys {
		for gi := range p.defs {
			vals[gi] = p.lat.value(idx, gi)
			vec[gi] = float64(vals[gi])
		}
		rt := math.Exp(p.quad.Eval(vec))
		if best < 0 || rt < bestRT {
			best, bestRT = idx, rt
		}
	}
	assign := make(map[config.Group]int, len(p.defs))
	for gi, d := range p.defs {
		assign[d.group] = p.lat.value(best, gi)
	}
	return config.GroupedConfig(p.space, assign)
}

// GroupQTable exposes the offline-trained group Q-table (diagnostics).
func (p *Policy) GroupQTable() *mdp.QTable { return p.q }

// Training reports how the offline RL pass that trained the group Q-table
// converged: sweeps run, final TD error, and whether it met its threshold
// before the sweep bound. It is not persisted — a loaded policy reports the
// zero value.
func (p *Policy) Training() mdp.BatchResult { return p.training }

// trainingMDP returns the deterministic MDP over the group lattice used for
// offline training, in the form mdp.Train takes: actions move one group one
// step (keep, then increase/decrease per group in defs order; a move leaving
// the lattice is infeasible), and the reward of entering a state is
// SLA − predictedRT. The structure keys its states by the lattice's own
// interned keys and owns the only copy of the transition table.
func (l *groupLattice) trainingMDP(predict func(vals []int) float64, sla float64) (*mdp.Structure, []float64, error) {
	defs := l.defs
	actions := 2*len(defs) + 1
	rewards := make([]float64, len(l.keys))
	trans := make([]int32, len(l.keys)*actions)
	vals := make([]int, len(defs))
	for idx := range l.keys {
		for gi := range defs {
			vals[gi] = l.value(idx, gi)
		}
		rewards[idx] = sla - predict(vals)
		base := idx * actions
		trans[base] = int32(idx) // keep
		for gi, d := range defs {
			li := (vals[gi] - d.min) / d.step
			trans[base+1+2*gi] = -1 // increase
			trans[base+2+2*gi] = -1 // decrease
			if li+1 < l.levels[gi] {
				trans[base+1+2*gi] = int32(idx + l.strides[gi])
			}
			if li > 0 {
				trans[base+2+2*gi] = int32(idx - l.strides[gi])
			}
		}
	}
	st, err := mdp.NewStructureFromTransitions(l.keys, actions, trans)
	return st, rewards, err
}

func parseGroupKey(key string, want int) ([]int, error) {
	parts := strings.Split(key, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("core: group key %q has %d fields, want %d", key, len(parts), want)
	}
	vals := make([]int, want)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("core: bad group key %q: %w", key, err)
		}
		vals[i] = v
	}
	return vals, nil
}
