package config

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestActionsCount(t *testing.T) {
	s := Default()
	acts := Actions(s)
	if len(acts) != 2*s.Len()+1 {
		t.Fatalf("got %d actions, want %d", len(acts), 2*s.Len()+1)
	}
	if acts[0].Dir != Keep {
		t.Fatal("first action is not keep")
	}
}

func TestActionsOrderingStable(t *testing.T) {
	s := Default()
	a := Actions(s)
	b := Actions(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action ordering unstable at %d", i)
		}
	}
	// Convention relied on by core.Policy.Seeder: index 1+2i increases
	// parameter i, index 2+2i decreases it.
	for i := 0; i < s.Len(); i++ {
		if a[1+2*i].ParamIndex != i || a[1+2*i].Dir != Increase {
			t.Fatalf("action %d is not increase(param %d)", 1+2*i, i)
		}
		if a[2+2*i].ParamIndex != i || a[2+2*i].Dir != Decrease {
			t.Fatalf("action %d is not decrease(param %d)", 2+2*i, i)
		}
	}
}

// TestActionsSharedAcrossSpaces: every space of one parameter count reads
// the same action set, and a smaller space's set is the larger one's prefix
// and stays as it was when a larger set is built after it.
func TestActionsSharedAcrossSpaces(t *testing.T) {
	small := MustSpace(Table1()[:1])
	few := slices.Clone(Actions(small))
	a, b := Actions(Default()), Actions(Default())
	if &a[0] != &b[0] || len(a) != len(b) {
		t.Fatal("two default spaces read different action sets")
	}
	wide := make([]Def, 12)
	for i := range wide {
		wide[i] = Def{Param: Param(100 + i), Name: fmt.Sprint("p", i), Min: 0, Max: 2, Step: 1, Default: 1}
	}
	many := Actions(MustSpace(wide))
	if len(many) != 25 || !slices.Equal(many[:len(a)], a) || !slices.Equal(Actions(small), few) || !slices.Equal(few, a[:3]) {
		t.Fatalf("sets of 1, %d and 12 parameters: %v, %v, %v", Default().Len(), few, a, many)
	}
}

func TestActionApply(t *testing.T) {
	s := Default()
	cfg := s.DefaultConfig()
	idx, _ := s.Lookup(MaxClients)
	def := s.Def(idx)

	up := Action{ParamIndex: idx, Dir: Increase}
	next, ok := up.Apply(s, cfg)
	if !ok {
		t.Fatal("increase infeasible from default")
	}
	if next[idx] != cfg[idx]+def.Step {
		t.Fatalf("increase moved to %d", next[idx])
	}
	if cfg[idx] != 150 {
		t.Fatal("Apply mutated input")
	}

	keep := Action{Dir: Keep}
	same, ok := keep.Apply(s, cfg)
	if !ok || !same.Equal(cfg) {
		t.Fatal("keep changed the configuration")
	}
}

func TestActionApplyEdges(t *testing.T) {
	s := Default()
	cfg := s.DefaultConfig()
	idx, _ := s.Lookup(MaxClients)
	def := s.Def(idx)

	atMax := cfg.Clone()
	atMax[idx] = def.Max
	if _, ok := (Action{ParamIndex: idx, Dir: Increase}).Apply(s, atMax); ok {
		t.Fatal("increase beyond max allowed")
	}
	atMin := cfg.Clone()
	atMin[idx] = def.Min
	if _, ok := (Action{ParamIndex: idx, Dir: Decrease}).Apply(s, atMin); ok {
		t.Fatal("decrease below min allowed")
	}
}

func TestActionApplyBadIndex(t *testing.T) {
	s := Default()
	cfg := s.DefaultConfig()
	if _, ok := (Action{ParamIndex: 99, Dir: Increase}).Apply(s, cfg); ok {
		t.Fatal("out-of-range parameter applied")
	}
	if _, ok := (Action{ParamIndex: -1, Dir: Decrease}).Apply(s, cfg); ok {
		t.Fatal("negative parameter applied")
	}
}

func TestActionApplyStaysOnLattice(t *testing.T) {
	s := Default()
	acts := Actions(s)
	check := func(seed uint16) bool {
		cfg := make(Config, s.Len())
		v := int(seed)
		for i, d := range s.Defs() {
			v = (v*17 + 3) % d.Levels()
			cfg[i] = d.Value(v)
		}
		for _, a := range acts {
			next, ok := a.Apply(s, cfg)
			if !ok {
				continue
			}
			if err := s.Validate(next); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestActionInverse(t *testing.T) {
	// increase then decrease returns to the origin wherever both apply.
	s := Default()
	cfg := s.DefaultConfig()
	for i := 0; i < s.Len(); i++ {
		up, okUp := (Action{ParamIndex: i, Dir: Increase}).Apply(s, cfg)
		if !okUp {
			continue
		}
		back, okDown := (Action{ParamIndex: i, Dir: Decrease}).Apply(s, up)
		if !okDown || !back.Equal(cfg) {
			t.Fatalf("param %d: inc/dec not inverse", i)
		}
	}
}

func TestActionDescribe(t *testing.T) {
	s := Default()
	if got := (Action{Dir: Keep}).Describe(s); got != "keep" {
		t.Fatalf("keep described as %q", got)
	}
	if got := (Action{ParamIndex: 0, Dir: Increase}).Describe(s); got != "increase MaxClients" {
		t.Fatalf("described as %q", got)
	}
}

func TestDirectionString(t *testing.T) {
	if Increase.String() != "increase" || Decrease.String() != "decrease" || Keep.String() != "keep" {
		t.Fatal("direction names wrong")
	}
}

// TestFeasibleMatchesApply holds Feasible to Apply's verdict — on every
// shipped space, at lattice corners and interior points, for malformed actions
// and short configurations — and to its reason for existing: no allocation.
func TestFeasibleMatchesApply(t *testing.T) {
	for _, s := range []*Space{Default(), WithAdmission(), WithCapacity()} {
		acts := append(Actions(s),
			Action{ParamIndex: -1, Dir: Increase},
			Action{ParamIndex: s.Len(), Dir: Decrease},
			Action{ParamIndex: 99, Dir: Keep})
		low, high := make(Config, s.Len()), make(Config, s.Len())
		for i, d := range s.Defs() {
			low[i], high[i] = d.Min, d.Max
		}
		cfgs := []Config{s.DefaultConfig(), low, high, low[:s.Len()-1], nil}
		for seed := 0; seed < 50; seed++ {
			cfg := make(Config, s.Len())
			v := seed
			for i, d := range s.Defs() {
				v = (v*17 + 3) % d.Levels()
				cfg[i] = d.Value(v)
			}
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			for _, a := range acts {
				if _, ok := a.Apply(s, cfg); a.Feasible(s, cfg) != ok {
					t.Fatalf("%d-param space, %v from %v: Feasible = %v, Apply ok = %v",
						s.Len(), a, cfg, !ok, ok)
				}
			}
		}
		cfg := s.DefaultConfig()
		if allocs := testing.AllocsPerRun(100, func() {
			for _, a := range acts {
				a.Feasible(s, cfg)
			}
		}); allocs != 0 {
			t.Fatalf("Feasible allocates %.1f per sweep, want 0", allocs)
		}
	}
}
