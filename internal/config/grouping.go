package config

import (
	"errors"
	"fmt"
	"math"
)

// GroupMembers returns, for each group, the list of parameter indices in the
// space that belong to it. Groups with no members in the space are omitted.
func GroupMembers(s *Space) map[Group][]int {
	members := make(map[Group][]int, 4)
	for i, d := range s.defs {
		members[d.Group] = append(members[d.Group], i)
	}
	return members
}

// Grouping is paper §4.1's parameter grouping as a value (Algorithm 2 step 1:
// "parameters in the same group are always given the same value"): which
// parameters share a value, and the lattice of those shared values. Groups are
// numbered in Groups() order, empty groups skipped. Obtain a space's grouping
// from Space.Grouping; it is immutable.
type Grouping struct {
	space *Space
	// groups is the group lattice, an ordinary Space with one synthetic Def
	// per group: the intersection of the members' ranges at the finest member
	// step, its top aligned down to the step grid.
	groups  *Space
	members [][]int // parameter indices of each group
	of      []int   // group number of each parameter
	// tops is the unaligned top of each group's intersection; coarse sampling
	// interpolates up to it, the lattice stops at or below it.
	tops []int
}

// newGrouping groups the space's parameters by Def.Group.
func newGrouping(s *Space) (*Grouping, error) {
	g := &Grouping{space: s, of: make([]int, s.Len())}
	byGroup := GroupMembers(s)
	var defs []Def
	for _, grp := range Groups() {
		idx := byGroup[grp]
		if len(idx) == 0 {
			continue
		}
		first := s.defs[idx[0]]
		d := Def{Param: first.Param, Name: grp.String(), Group: grp,
			Min: first.Min, Max: first.Max, Step: first.Step}
		for _, i := range idx {
			m := s.defs[i]
			d.Min, d.Max, d.Step = max(d.Min, m.Min), min(d.Max, m.Max), min(d.Step, m.Step)
			g.of[i] = len(defs)
		}
		if d.Max < d.Min {
			return nil, fmt.Errorf("config: group %s member ranges do not overlap", grp)
		}
		g.tops = append(g.tops, d.Max)
		d.Max = d.Min + (d.Max-d.Min)/d.Step*d.Step
		d.Default = d.Min
		defs = append(defs, d)
		g.members = append(g.members, idx)
	}
	if len(defs) != len(byGroup) {
		return nil, errors.New("config: a parameter's group is not one of Groups()")
	}
	var err error
	g.groups, err = NewSpace(defs)
	return g, err
}

// Space returns the group lattice: group gi is parameter gi of it, so group
// states, ordinals and actions are the ordinary Space ones.
func (g *Grouping) Space() *Space { return g.groups }

// Members returns the indices, in the grouped space, of group gi's
// parameters. The slice is shared; callers must not mutate it.
func (g *Grouping) Members(gi int) []int { return g.members[gi] }

// Of returns the group number of parameter i of the grouped space.
func (g *Grouping) Of(i int) int { return g.of[i] }

// mean is the mean value of group gi's members in c.
func (g *Grouping) mean(c Config, gi int) float64 {
	var sum float64
	for _, i := range g.members[gi] {
		if i < len(c) {
			sum += float64(c[i])
		}
	}
	return sum / float64(len(g.members[gi]))
}

// AppendMeans projects a configuration onto its per-group mean values — the
// feature vector of the regression predictor fitted during policy
// initialization — appending them to dst and returning the extended slice.
// With room in dst it does not allocate.
func (g *Grouping) AppendMeans(dst []float64, c Config) []float64 {
	for gi := range g.members {
		dst = append(dst, g.mean(c, gi))
	}
	return dst
}

// Ordinal snaps a configuration onto the group lattice — each group's mean,
// rounded, then clamped to the nearest lattice value — and returns that
// point's ordinal in Space(). It does not allocate.
func (g *Grouping) Ordinal(c Config) uint64 {
	var ord uint64
	for gi := range g.members {
		d := &g.groups.defs[gi]
		ord += uint64(d.Index(int(math.Round(g.mean(c, gi))))) * g.groups.strides[gi]
	}
	return ord
}

// Expand builds the full configuration that gives every member of group gi
// the value point[gi], snapping each parameter onto its own lattice.
func (g *Grouping) Expand(point Config) (Config, error) {
	if len(point) != len(g.members) {
		return nil, fmt.Errorf("config: got %d values for %d groups", len(point), len(g.members))
	}
	return g.expand(point), nil
}

func (g *Grouping) expand(point Config) Config {
	c := make(Config, g.space.Len())
	for i, d := range g.space.defs {
		c[i] = d.Value(d.Index(point[g.of[i]]))
	}
	return c
}

// coarsePoints returns k^groups, the size of a coarse sweep, and whether it
// is at most limit; it never overflows.
func coarsePoints(k, groups, limit int) (int, bool) {
	n := 1
	for range groups {
		if n > limit/k {
			return 0, false
		}
		n *= k
	}
	return n, true
}

// coarseValue returns the j-th of k representative values of group gi, spread
// evenly over the intersection of its members' ranges (paper §4.1: "coarse
// granularity ... during training data collection").
func (g *Grouping) coarseValue(gi, j, k int) int {
	lo, hi := g.groups.defs[gi].Min, g.tops[gi]
	return lo + (hi-lo)*j/(k-1)
}

// Coarse enumerates the coarse grouped sublattice that policy initialization
// samples: every combination of k coarse values per group, the last group
// varying fastest. cfgs[i] is the expanded configuration of combination i and
// values[i] its per-group values — the regression's feature vector. Callers
// index samples, RNG streams and tie-breaks by this order, so it is part of
// the contract. k must be at least 2, and the sweep's k^G points no more than
// the group lattice's states: a larger k only samples lattice values twice,
// and k comes from outside the program (a registry recipe, racpolicy
// -coarse), so it is refused before anything is allocated.
func (g *Grouping) Coarse(k int) (cfgs []Config, values [][]float64, err error) {
	if k < 2 {
		return nil, nil, fmt.Errorf("config: need at least 2 coarse values, got %d", k)
	}
	states := g.groups.States()
	n, ok := coarsePoints(k, len(g.members), states)
	if !ok {
		most := 1
		for {
			if _, fits := coarsePoints(most+1, len(g.members), states); !fits {
				break
			}
			most++
		}
		return nil, nil, fmt.Errorf("config: %d coarse values per group sweep more points than the group lattice's %d states; at most %d", k, states, most)
	}
	cfgs = make([]Config, n)
	values = make([][]float64, n)
	point := make(Config, len(g.members))
	for i := range cfgs {
		values[i] = make([]float64, len(point))
		// Mixed-radix digits of i, least significant = last group.
		for gi, rem := len(point)-1, i; gi >= 0; gi, rem = gi-1, rem/k {
			point[gi] = g.coarseValue(gi, rem%k, k)
			values[i][gi] = float64(point[gi])
		}
		cfgs[i] = g.expand(point)
	}
	return cfgs, values, nil
}
