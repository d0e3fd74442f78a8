package config

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable1HasEightParams(t *testing.T) {
	defs := Table1()
	if len(defs) != 8 {
		t.Fatalf("Table 1 has %d parameters, want 8", len(defs))
	}
	names := map[string]bool{}
	for _, d := range defs {
		names[d.Name] = true
	}
	for _, want := range []string{
		"MaxClients", "KeepaliveTimeout", "MinSpareServers", "MaxSpareServers",
		"MaxThreads", "SessionTimeout", "MinSpareThreads", "MaxSpareThreads",
	} {
		if !names[want] {
			t.Errorf("missing parameter %s", want)
		}
	}
}

func TestTable1Lattices(t *testing.T) {
	for _, d := range Table1() {
		if d.Step <= 0 {
			t.Errorf("%s: step %d", d.Name, d.Step)
		}
		if (d.Max-d.Min)%d.Step != 0 {
			t.Errorf("%s: range [%d,%d] not divisible by step %d", d.Name, d.Min, d.Max, d.Step)
		}
		if d.Default < d.Min || d.Default > d.Max {
			t.Errorf("%s: default %d outside [%d,%d]", d.Name, d.Default, d.Min, d.Max)
		}
		if d.Levels() < 2 {
			t.Errorf("%s: only %d levels", d.Name, d.Levels())
		}
	}
}

func TestDefValueIndexRoundTrip(t *testing.T) {
	for _, d := range Table1() {
		for i := 0; i < d.Levels(); i++ {
			v := d.Value(i)
			if got := d.Index(v); got != i {
				t.Fatalf("%s: Index(Value(%d)) = %d", d.Name, i, got)
			}
		}
	}
}

func TestDefValueClamps(t *testing.T) {
	d := Table1()[0] // MaxClients 50..600 step 50
	if d.Value(-5) != d.Min {
		t.Fatalf("Value(-5) = %d", d.Value(-5))
	}
	if d.Value(999) != d.Max {
		t.Fatalf("Value(999) = %d", d.Value(999))
	}
	if d.Index(-100) != 0 {
		t.Fatal("Index below min")
	}
	if d.Index(10000) != d.Levels()-1 {
		t.Fatal("Index above max")
	}
}

func TestDefIndexRoundsToNearest(t *testing.T) {
	d := Def{Min: 0, Max: 100, Step: 10}
	if d.Index(14) != 1 {
		t.Fatalf("Index(14) = %d, want 1", d.Index(14))
	}
	if d.Index(16) != 2 {
		t.Fatalf("Index(16) = %d, want 2", d.Index(16))
	}
}

func TestNewSpaceRejectsBadDefs(t *testing.T) {
	tests := []struct {
		name string
		defs []Def
	}{
		{"empty", nil},
		{"zero step", []Def{{Param: MaxClients, Name: "x", Min: 0, Max: 10, Step: 0, Default: 0}}},
		{"inverted range", []Def{{Param: MaxClients, Name: "x", Min: 10, Max: 0, Step: 1, Default: 5}}},
		{"non-divisible", []Def{{Param: MaxClients, Name: "x", Min: 0, Max: 10, Step: 3, Default: 0}}},
		{"default outside", []Def{{Param: MaxClients, Name: "x", Min: 0, Max: 10, Step: 5, Default: 50}}},
		{"duplicate", []Def{
			{Param: MaxClients, Name: "a", Min: 0, Max: 10, Step: 5, Default: 0},
			{Param: MaxClients, Name: "b", Min: 0, Max: 10, Step: 5, Default: 0},
		}},
	}
	for _, tt := range tests {
		if _, err := NewSpace(tt.defs); err == nil {
			t.Errorf("%s: no error", tt.name)
		}
	}
}

func TestSpaceStates(t *testing.T) {
	s := Default()
	want := 1
	for _, d := range s.Defs() {
		want *= d.Levels()
	}
	if got := s.States(); got != want {
		t.Fatalf("States = %d, want %d", got, want)
	}
	if s.States() < 1_000_000 {
		t.Fatalf("full lattice suspiciously small: %d", s.States())
	}
}

func TestDefaultConfigOnLattice(t *testing.T) {
	s := Default()
	cfg := s.DefaultConfig()
	if err := s.Validate(cfg); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestClampSnapsOntoLattice(t *testing.T) {
	s := Default()
	raw := make(Config, s.Len())
	for i, d := range s.Defs() {
		raw[i] = d.Min + 1 // off-lattice for step > 1
	}
	snapped, err := s.Clamp(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(snapped); err != nil {
		t.Fatalf("clamped config invalid: %v", err)
	}
	if _, err := s.Clamp(Config{1}); err == nil {
		t.Fatal("short config clamped without error")
	}
}

func TestValidateRejects(t *testing.T) {
	s := Default()
	cfg := s.DefaultConfig()
	bad := cfg.Clone()
	bad[0] = 51 // off-lattice
	if err := s.Validate(bad); err == nil {
		t.Fatal("off-lattice accepted")
	}
	if err := s.Validate(cfg[:3]); err == nil {
		t.Fatal("short config accepted")
	}
}

func TestConfigKeyRoundTrip(t *testing.T) {
	s := Default()
	cfg := s.DefaultConfig()
	parsed, err := ParseKey(cfg.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(cfg) {
		t.Fatalf("round trip: %v != %v", parsed, cfg)
	}
}

func TestConfigKeyRoundTripProperty(t *testing.T) {
	s := Default()
	check := func(seed uint16) bool {
		cfg := make(Config, s.Len())
		v := int(seed)
		for i, d := range s.Defs() {
			v = (v*31 + 7) % d.Levels()
			cfg[i] = d.Value(v)
		}
		parsed, err := ParseKey(cfg.Key())
		return err == nil && parsed.Equal(cfg)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseKeyErrors(t *testing.T) {
	if _, err := ParseKey(""); err == nil {
		t.Fatal("empty key parsed")
	}
	if _, err := ParseKey("1,x,3"); err == nil {
		t.Fatal("garbage key parsed")
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	s := Default()
	a := s.DefaultConfig()
	b := a.Clone()
	b[0] = 600
	if a[0] == 600 {
		t.Fatal("clone aliases original")
	}
}

func TestConfigGetWith(t *testing.T) {
	s := Default()
	cfg := s.DefaultConfig()
	v, ok := cfg.Get(s, MaxClients)
	if !ok || v != 150 {
		t.Fatalf("Get(MaxClients) = %d,%v", v, ok)
	}
	cfg2 := cfg.With(s, MaxClients, 300)
	if v2, _ := cfg2.Get(s, MaxClients); v2 != 300 {
		t.Fatalf("With did not set: %d", v2)
	}
	if v1, _ := cfg.Get(s, MaxClients); v1 != 150 {
		t.Fatal("With mutated the original")
	}
}

func TestConfigFormatMentionsNames(t *testing.T) {
	s := Default()
	out := s.DefaultConfig().Format(s)
	if !strings.Contains(out, "MaxClients=150") {
		t.Fatalf("Format output %q", out)
	}
}

func TestTierAndGroupStrings(t *testing.T) {
	if TierWeb.String() != "web" || TierApp.String() != "app" || TierDatabase.String() != "db" {
		t.Fatal("tier names wrong")
	}
	if Tier(99).String() != "unknown" {
		t.Fatal("unknown tier name")
	}
	for _, g := range Groups() {
		if g.String() == "unknown" {
			t.Fatalf("group %d has no name", g)
		}
	}
	if Group(99).String() != "unknown" {
		t.Fatal("unknown group name")
	}
}

// TestOrdinalIsDenseIdentity enumerates a small lattice: ordinals are unique,
// cover 0..States()-1, and a one-step action moves them by exactly ±Stride.
func TestOrdinalIsDenseIdentity(t *testing.T) {
	s := MustSpace([]Def{
		{Param: MaxClients, Name: "a", Min: 50, Max: 150, Step: 50, Default: 50},
		{Param: KeepAliveTimeout, Name: "b", Min: 1, Max: 7, Step: 2, Default: 1},
		{Param: MinSpareServers, Name: "c", Min: -10, Max: 0, Step: 10, Default: 0},
	})
	// The whole lattice as an MDP, and the sub-MDP on its even ordinals: a move
	// to an absent point is as infeasible as one off the lattice.
	all := make([]uint64, s.States())
	for i := range all {
		all[i] = uint64(i)
	}
	whole := s.Transitions(nil, all, func(ord uint64) int32 { return int32(ord) })
	evenIndex := func(ord uint64) int32 {
		if ord%2 == 0 && ord <= 4 {
			return int32(ord / 2)
		}
		return -1
	}
	evens := s.Transitions(nil, []uint64{0, 2, 4}, evenIndex)
	// Strides are 8, 2, 1: from ordinal 2 (b one step up) keep stays, b moves
	// to ordinals 4 and 0, a's increase leaves the subset, c's leaves it too.
	if want := []int32{1, -1, -1, 2, 0, -1, -1}; !slices.Equal(evens[7:14], want) {
		t.Fatalf("sub-lattice transitions from ordinal 2: %v, want %v", evens[7:14], want)
	}
	// Appending keeps what dst held and adds the same table an empty dst gets.
	if both := s.Transitions(slices.Clone(whole), []uint64{0, 2, 4}, evenIndex); !slices.Equal(both, append(slices.Clone(whole), evens...)) {
		t.Fatal("transitions appended to a table differ from the table followed by the ones built alone")
	}
	seen := make(map[uint64]string)
	for a := 50; a <= 150; a += 50 {
		for b := 1; b <= 7; b += 2 {
			for c := -10; c <= 0; c += 10 {
				cfg := Config{a, b, c}
				ord := s.Ordinal(cfg)
				if prev, dup := seen[ord]; dup {
					t.Fatalf("%v and %s share ordinal %d", cfg, prev, ord)
				}
				if ord >= uint64(s.States()) {
					t.Fatalf("%v has ordinal %d, lattice has %d points", cfg, ord, s.States())
				}
				seen[ord] = cfg.Key()
				if got := s.At(ord, make(Config, 3)); !got.Equal(cfg) {
					t.Fatalf("At(%d) = %v, want %v", ord, got, cfg)
				}
				for ai, act := range Actions(s)[1:] {
					next, ok := act.Apply(s, cfg)
					if !ok {
						if whole[int(ord)*len(Actions(s))+1+ai] != -1 {
							t.Fatalf("%v %v: infeasible move has a transition", cfg, act)
						}
						continue
					}
					if got := whole[int(ord)*len(Actions(s))+1+ai]; uint64(got) != s.Ordinal(next) {
						t.Fatalf("%v %v: transition to %d, want %d", cfg, act, got, s.Ordinal(next))
					}
					want := ord + s.Stride(act.ParamIndex)
					if act.Dir == Decrease {
						want = ord - s.Stride(act.ParamIndex)
					}
					if got := s.Ordinal(next); got != want {
						t.Fatalf("%v %v: ordinal %d, want %d", cfg, act, got, want)
					}
				}
			}
		}
	}
	if len(seen) != s.States() || s.States() != 3*4*2 {
		t.Fatalf("%d ordinals over %d states, want 24 of each", len(seen), s.States())
	}
	// The shipped spaces: the largest ordinal is the all-max corner.
	for _, s := range []*Space{Default(), WithAdmission(), WithCapacity()} {
		top := make(Config, s.Len())
		for i, d := range s.Defs() {
			top[i] = d.Max
		}
		if got := s.Ordinal(top); got != uint64(s.States()-1) {
			t.Fatalf("%d-param space: top corner ordinal %d, want States()-1 = %d", s.Len(), got, s.States()-1)
		}
		if got := s.Ordinal(s.DefaultConfig()); got == 0 || s.Stride(s.Len()-1) != 1 {
			t.Fatalf("%d-param space: default ordinal %d, last stride %d", s.Len(), got, s.Stride(s.Len()-1))
		}
	}
}

// TestNewSpaceRejectsOverflowingLattice: ordinals (and States) need the point
// count to fit an int, so a lattice past that is refused at construction.
func TestNewSpaceRejectsOverflowingLattice(t *testing.T) {
	wide := func(n int) []Def {
		defs := make([]Def, n)
		for i := range defs {
			defs[i] = Def{Param: Param(100 + i), Name: fmt.Sprintf("p%d", i), Min: 0, Max: 1<<16 - 1, Step: 1}
		}
		return defs
	}
	if _, err := NewSpace(wide(1)); err != nil {
		t.Fatalf("2^16-point lattice rejected: %v", err)
	}
	if _, err := NewSpace(wide(4)); err == nil {
		t.Fatal("2^64-point lattice accepted")
	}
}
