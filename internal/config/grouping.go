package config

import "fmt"

// GroupMembers returns, for each group, the list of parameter indices in the
// space that belong to it. Groups with no members in the space are omitted.
func GroupMembers(s *Space) map[Group][]int {
	members := make(map[Group][]int, 4)
	for i, d := range s.defs {
		members[d.Group] = append(members[d.Group], i)
	}
	return members
}

// CoarseValues returns k representative values for a group, spread evenly
// over the intersection of its members' ranges. All members of a group share
// each sampled value (paper §4.1: "parameters in the same group are always
// given the same value", with "coarse granularity ... during training data
// collection"). k must be at least 2.
func CoarseValues(s *Space, g Group, k int) ([]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("config: need at least 2 coarse values, got %d", k)
	}
	members := GroupMembers(s)[g]
	if len(members) == 0 {
		return nil, fmt.Errorf("config: group %s has no members", g)
	}
	lo, hi := s.defs[members[0]].Min, s.defs[members[0]].Max
	for _, i := range members[1:] {
		if m := s.defs[i].Min; m > lo {
			lo = m
		}
		if m := s.defs[i].Max; m < hi {
			hi = m
		}
	}
	if hi < lo {
		return nil, fmt.Errorf("config: group %s member ranges do not overlap", g)
	}
	vals := make([]int, k)
	for j := 0; j < k; j++ {
		vals[j] = lo + (hi-lo)*j/(k-1)
	}
	return vals, nil
}

// GroupedConfig builds a full configuration from one value per group,
// snapping each parameter onto its lattice. Values must be keyed by group.
func GroupedConfig(s *Space, values map[Group]int) (Config, error) {
	c := make(Config, s.Len())
	for i, d := range s.defs {
		v, ok := values[d.Group]
		if !ok {
			return nil, fmt.Errorf("config: missing value for group %s", d.Group)
		}
		c[i] = d.Value(d.Index(v))
	}
	return c, nil
}

// CoarseSublattice enumerates the coarse grouped sublattice that policy
// initialization samples: every combination of the k CoarseValues of each
// non-empty group, in Groups() order with the last group varying fastest.
// cfgs[i] is the GroupedConfig of combination i and values[i] its per-group
// values in the same group order — the regression's feature vector. Callers
// index samples, RNG streams and tie-breaks by this order, so it is part of
// the contract.
func CoarseSublattice(s *Space, k int) (cfgs []Config, values [][]float64, err error) {
	members := GroupMembers(s)
	var (
		order  []Group
		coarse [][]int
	)
	n := 1
	for _, g := range Groups() {
		if len(members[g]) == 0 {
			continue
		}
		vals, err := CoarseValues(s, g, k)
		if err != nil {
			return nil, nil, err
		}
		order = append(order, g)
		coarse = append(coarse, vals)
		n *= k
	}
	cfgs = make([]Config, n)
	values = make([][]float64, n)
	assign := make(map[Group]int, len(order))
	for i := range cfgs {
		values[i] = make([]float64, len(order))
		// Mixed-radix digits of i, least significant = last group.
		for gi, rem := len(order)-1, i; gi >= 0; gi, rem = gi-1, rem/k {
			v := coarse[gi][rem%k]
			assign[order[gi]] = v
			values[i][gi] = float64(v)
		}
		if cfgs[i], err = GroupedConfig(s, assign); err != nil {
			return nil, nil, err
		}
	}
	return cfgs, values, nil
}

// GroupVector projects a configuration onto its per-group mean values, in
// Groups() order restricted to groups present in the space. It is the feature
// vector used by the regression predictor during policy initialization.
func GroupVector(s *Space, c Config) []float64 {
	members := GroupMembers(s)
	var vec []float64
	for _, g := range Groups() {
		idx := members[g]
		if len(idx) == 0 {
			continue
		}
		var sum float64
		for _, i := range idx {
			if i < len(c) {
				sum += float64(c[i])
			}
		}
		vec = append(vec, sum/float64(len(idx)))
	}
	return vec
}

// Features returns a quadratic feature basis over the space for use with
// linear value-function approximation (the paper's §7 future-work
// direction): a bias term, each parameter normalized to [0,1], and its
// square. States that fail to parse yield the bias-only vector.
func Features(s *Space) (func(stateKey string) []float64, int) {
	dim := 1 + 2*s.Len()
	defs := s.Defs()
	return func(stateKey string) []float64 {
		out := make([]float64, dim)
		out[0] = 1
		cfg, err := ParseKey(stateKey)
		if err != nil || len(cfg) != len(defs) {
			return out
		}
		for i, d := range defs {
			span := float64(d.Max - d.Min)
			x := 0.0
			if span > 0 {
				x = float64(cfg[i]-d.Min) / span
			}
			out[1+2*i] = x
			out[2+2*i] = x * x
		}
		return out
	}, dim
}
