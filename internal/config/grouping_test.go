package config

import (
	"math"
	"strings"
	"testing"
)

func TestGroupMembersCoversAllParams(t *testing.T) {
	s := Default()
	members := GroupMembers(s)
	total := 0
	for _, idx := range members {
		total += len(idx)
	}
	if total != s.Len() {
		t.Fatalf("group members cover %d of %d params", total, s.Len())
	}
	// The paper's example groupings.
	cap := members[GroupCapacity]
	if len(cap) != 2 {
		t.Fatalf("capacity group has %d members", len(cap))
	}
	for _, i := range cap {
		name := s.Def(i).Name
		if name != "MaxClients" && name != "MaxThreads" {
			t.Fatalf("capacity group contains %s", name)
		}
	}
	to := members[GroupTimeout]
	for _, i := range to {
		name := s.Def(i).Name
		if name != "KeepaliveTimeout" && name != "SessionTimeout" {
			t.Fatalf("timeout group contains %s", name)
		}
	}
}

func defaultGrouping(t *testing.T) *Grouping {
	t.Helper()
	g, err := Default().Grouping()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCoarseValues(t *testing.T) {
	g := defaultGrouping(t) // group 0 is capacity
	vals := make([]int, 4)
	for j := range vals {
		vals[j] = g.coarseValue(0, j, 4)
	}
	if vals[0] != 50 || vals[3] != 600 {
		t.Fatalf("capacity coarse values %v", vals)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("coarse values not increasing: %v", vals)
		}
	}
}

func TestCoarseValuesErrors(t *testing.T) {
	if _, _, err := defaultGrouping(t).Coarse(1); err == nil {
		t.Fatal("k=1 accepted")
	}
	// The sweep may hold at most the group lattice's 10 692 states: 10^4
	// does, 11^4 does not, and 65 536^4 would wrap an int to 0.
	if cfgs, _, err := defaultGrouping(t).Coarse(10); err != nil || len(cfgs) != 10_000 {
		t.Fatalf("k=10: %d points, %v", len(cfgs), err)
	}
	for _, k := range []int{11, 65536, math.MaxInt} {
		if _, _, err := defaultGrouping(t).Coarse(k); err == nil || !strings.Contains(err.Error(), "10692 states; at most 10") {
			t.Errorf("k=%d: error %v, want the bound", k, err)
		}
	}
	disjoint := MustSpace([]Def{
		{Param: MaxClients, Name: "a", Group: GroupCapacity, Min: 0, Max: 10, Step: 5},
		{Param: MaxThreads, Name: "b", Group: GroupCapacity, Min: 20, Max: 30, Step: 5, Default: 20},
	})
	if _, err := disjoint.Grouping(); err == nil {
		t.Fatal("group with disjoint member ranges accepted")
	}
	ungrouped := MustSpace([]Def{{Param: MaxClients, Name: "a", Group: Group(99), Min: 0, Max: 10, Step: 5}})
	if _, err := ungrouped.Grouping(); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestGroupedConfig(t *testing.T) {
	s := Default()
	cfg, err := defaultGrouping(t).Expand(Config{300, 11, 45, 55})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(cfg); err != nil {
		t.Fatalf("grouped config off lattice: %v", err)
	}
	mc, _ := cfg.Get(s, MaxClients)
	mt, _ := cfg.Get(s, MaxThreads)
	if mc != 300 || mt != 300 {
		t.Fatalf("capacity group not shared: MaxClients=%d MaxThreads=%d", mc, mt)
	}
}

func TestGroupedConfigMissingGroup(t *testing.T) {
	if _, err := defaultGrouping(t).Expand(Config{100}); err == nil {
		t.Fatal("missing groups accepted")
	}
}

// TestCoarseSublatticeOrder pins the enumeration contract against the nested
// loops it replaced: groups in Groups() order, first group outermost.
func TestCoarseSublatticeOrder(t *testing.T) {
	g := defaultGrouping(t)
	const k = 3
	cfgs, values, err := g.Coarse(k)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	point := make(Config, g.Space().Len())
	var walk func(gi int)
	walk = func(gi int) {
		if gi == len(point) {
			want, err := g.Expand(point)
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(cfgs) || !cfgs[i].Equal(want) {
				t.Fatalf("point %d is not %v", i, want)
			}
			for j, v := range point {
				if values[i][j] != float64(v) {
					t.Fatalf("point %d values %v, want group %d = %d", i, values[i], j, v)
				}
			}
			i++
			return
		}
		for j := 0; j < k; j++ {
			point[gi] = g.coarseValue(gi, j, k)
			walk(gi + 1)
		}
	}
	walk(0)
	if i != len(cfgs) || len(values) != len(cfgs) {
		t.Fatalf("enumerated %d configs and %d value vectors, want %d", len(cfgs), len(values), i)
	}
}

func TestGroupVector(t *testing.T) {
	g := defaultGrouping(t)
	cfg, err := g.Expand(Config{200, 7, 25, 35})
	if err != nil {
		t.Fatal(err)
	}
	vec := g.AppendMeans(nil, cfg)
	if len(vec) != 4 {
		t.Fatalf("vector length %d", len(vec))
	}
	// Capacity members share 200 exactly.
	if vec[0] != 200 {
		t.Fatalf("capacity mean %v", vec[0])
	}
}
