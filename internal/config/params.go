// Package config models the web-system configuration space the RAC agent
// searches: the eight performance-critical parameters of paper Table 1, the
// discrete value lattice each parameter is tuned over, the per-parameter
// increase/decrease/keep actions, and the parameter groups used during
// policy-initialization sampling.
package config

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Tier identifies which tier of the web system a parameter belongs to.
type Tier int

// Tiers of the three-tier system. The database tier keeps its defaults in the
// paper, so no parameter carries TierDatabase, but the constant exists for
// completeness and for the live stack.
const (
	TierWeb Tier = iota + 1
	TierApp
	TierDatabase
)

// String returns the lowercase tier name.
func (t Tier) String() string {
	switch t {
	case TierWeb:
		return "web"
	case TierApp:
		return "app"
	case TierDatabase:
		return "db"
	default:
		return "unknown"
	}
}

// Group labels parameters with similar characteristics; during policy
// initialization all parameters in a group are sampled with a single shared
// value (paper §4.1 "parameter grouping").
type Group int

// The four groups of paper §4.1 — concurrency limits, connection/session
// timeouts, minimum spare pool sizes and maximum spare pool sizes — plus
// GroupScale for the elastic-capacity extension. VM-level ordinals (1..3)
// cannot share GroupCapacity: grouped sampling intersects member ranges, and
// 1..3 does not overlap 50..600.
const (
	GroupCapacity Group = iota + 1
	GroupTimeout
	GroupMinSpare
	GroupMaxSpare
	GroupScale
)

// String returns the group name.
func (g Group) String() string {
	switch g {
	case GroupCapacity:
		return "capacity"
	case GroupTimeout:
		return "timeout"
	case GroupMinSpare:
		return "minspare"
	case GroupMaxSpare:
		return "maxspare"
	case GroupScale:
		return "scale"
	default:
		return "unknown"
	}
}

// Groups returns the group identifiers in a stable order.
func Groups() []Group {
	return []Group{GroupCapacity, GroupTimeout, GroupMinSpare, GroupMaxSpare, GroupScale}
}

// Param identifies one of the eight tunable parameters.
type Param int

// The eight parameters of paper Table 1, plus the admission-gate extension
// (AdmitConcurrency, AdmitQueue) appended after them so the Table 1 constants
// keep their values.
const (
	MaxClients Param = iota + 1 // web: maximum simultaneous requests
	KeepAliveTimeout
	MinSpareServers
	MaxSpareServers
	MaxThreads // app: maximum worker threads
	SessionTimeout
	MinSpareThreads
	MaxSpareThreads
	AdmitConcurrency // gate: concurrent requests admitted past the SLO gate
	AdmitQueue       // gate: admitted-but-waiting queue depth
	CapacityLevel    // capacity: VM provisioning level ordinal (1 = Level-3 … 3 = Level-1)
)

// Def describes one tunable parameter: its lattice (Min..Max in Step
// increments), the Apache/Tomcat default, the owning tier and its sampling
// group.
type Def struct {
	Param   Param
	Name    string
	Tier    Tier
	Group   Group
	Min     int
	Max     int
	Step    int
	Default int
	// Unit is a human-readable unit for docs and CLIs ("", "s", "min").
	Unit string
}

// Levels returns the number of lattice points for the parameter.
func (d Def) Levels() int { return (d.Max-d.Min)/d.Step + 1 }

// Value returns the lattice value at index i, clamped to the lattice.
func (d Def) Value(i int) int {
	if i < 0 {
		i = 0
	}
	if max := d.Levels() - 1; i > max {
		i = max
	}
	return d.Min + i*d.Step
}

// Index returns the nearest lattice index for value v.
func (d Def) Index(v int) int {
	if v <= d.Min {
		return 0
	}
	if v >= d.Max {
		return d.Levels() - 1
	}
	// Round to the nearest step.
	return (v - d.Min + d.Step/2) / d.Step
}

// Table1 returns the eight parameter definitions of paper Table 1.
//
// The published table lost trailing zeros in typesetting; the ranges below
// are the standard reconstruction (MaxClients 50..600 etc.) consistent with
// the Apache/Tomcat defaults named in the text. Step sizes define the online
// learning lattice; the paper tunes on a finer lattice than it samples during
// policy initialization, which Grouping.Coarse reproduces.
func Table1() []Def {
	return []Def{
		{Param: MaxClients, Name: "MaxClients", Tier: TierWeb, Group: GroupCapacity,
			Min: 50, Max: 600, Step: 50, Default: 150},
		{Param: KeepAliveTimeout, Name: "KeepaliveTimeout", Tier: TierWeb, Group: GroupTimeout,
			Min: 1, Max: 21, Step: 2, Default: 15, Unit: "s"},
		{Param: MinSpareServers, Name: "MinSpareServers", Tier: TierWeb, Group: GroupMinSpare,
			Min: 5, Max: 85, Step: 10, Default: 5},
		{Param: MaxSpareServers, Name: "MaxSpareServers", Tier: TierWeb, Group: GroupMaxSpare,
			Min: 15, Max: 95, Step: 10, Default: 15},
		{Param: MaxThreads, Name: "MaxThreads", Tier: TierApp, Group: GroupCapacity,
			Min: 50, Max: 600, Step: 50, Default: 200},
		{Param: SessionTimeout, Name: "SessionTimeout", Tier: TierApp, Group: GroupTimeout,
			Min: 1, Max: 35, Step: 2, Default: 29, Unit: "min"},
		{Param: MinSpareThreads, Name: "MinSpareThreads", Tier: TierApp, Group: GroupMinSpare,
			Min: 5, Max: 85, Step: 10, Default: 5},
		{Param: MaxSpareThreads, Name: "MaxSpareThreads", Tier: TierApp, Group: GroupMaxSpare,
			Min: 15, Max: 95, Step: 10, Default: 55},
	}
}

// Space is an ordered set of parameter definitions; it defines the discrete
// configuration lattice the agent searches.
type Space struct {
	defs  []Def
	index map[Param]int
	// strides[i] is the mixed-radix weight of parameter i's lattice index:
	// the product of the level counts of every later parameter (see Ordinal).
	strides []uint64
	// grouping derives the space's Grouping on first use.
	grouping func() (*Grouping, error)
}

// NewSpace builds a space from defs. It returns an error for empty input,
// duplicate parameters, malformed lattices, or a lattice with more points
// than an int can count (States and Ordinal rely on that bound).
func NewSpace(defs []Def) (*Space, error) {
	if len(defs) == 0 {
		return nil, errors.New("config: empty parameter space")
	}
	s := &Space{
		defs:    make([]Def, len(defs)),
		index:   make(map[Param]int, len(defs)),
		strides: make([]uint64, len(defs)),
	}
	copy(s.defs, defs)
	s.grouping = sync.OnceValues(func() (*Grouping, error) { return newGrouping(s) })
	for i, d := range s.defs {
		if d.Step <= 0 || d.Max < d.Min || (d.Max-d.Min)%d.Step != 0 {
			return nil, fmt.Errorf("config: malformed lattice for %s [%d,%d] step %d",
				d.Name, d.Min, d.Max, d.Step)
		}
		if d.Default < d.Min || d.Default > d.Max {
			return nil, fmt.Errorf("config: default %d outside [%d,%d] for %s",
				d.Default, d.Min, d.Max, d.Name)
		}
		if _, dup := s.index[d.Param]; dup {
			return nil, fmt.Errorf("config: duplicate parameter %s", d.Name)
		}
		s.index[d.Param] = i
	}
	total := uint64(1)
	for i := len(s.defs) - 1; i >= 0; i-- {
		s.strides[i] = total
		levels := uint64(s.defs[i].Levels())
		if total > math.MaxInt/levels {
			return nil, fmt.Errorf("config: lattice of %d parameters has more than %d points",
				len(s.defs), math.MaxInt)
		}
		total *= levels
	}
	return s, nil
}

// MustSpace is NewSpace for statically known-good definitions; it panics on
// error and is intended for package-level defaults and tests.
func MustSpace(defs []Def) *Space {
	s, err := NewSpace(defs)
	if err != nil {
		panic(err)
	}
	return s
}

// AdmissionDefs returns the admission-gate lattice: the SLO gate's
// concurrency and queue-depth caps as tunable parameters, so Q-learning can
// move the gate alongside MaxClients/KeepAlive. The defaults are wide open —
// AdmitConcurrency at its lattice max with a half-capacity queue behind it —
// so a default configuration behaves like the ungated system until the agent
// (or the epoch loop) tightens it.
func AdmissionDefs() []Def {
	return []Def{
		{Param: AdmitConcurrency, Name: "AdmitConcurrency", Tier: TierWeb, Group: GroupCapacity,
			Min: 50, Max: 600, Step: 50, Default: 600},
		{Param: AdmitQueue, Name: "AdmitQueue", Tier: TierWeb, Group: GroupCapacity,
			Min: 50, Max: 600, Step: 50, Default: 300},
	}
}

// CapacityDefs returns the elastic-capacity lattice: the VM provisioning
// level as a tunable parameter, expressed as a capacity ordinal (1 = the
// paper's Level-3, the smallest VM; 3 = Level-1, the largest). The default is
// the lattice max — a default configuration provisions at peak, exactly like
// the static testbed, until the agent (or the saturation fast path) scales
// down. The parameter sits in its own GroupScale: grouped sampling intersects
// member ranges, and 1..3 shares no values with the 50..600 concurrency caps.
func CapacityDefs() []Def {
	return []Def{
		{Param: CapacityLevel, Name: "CapacityLevel", Tier: TierApp, Group: GroupScale,
			Min: 1, Max: 3, Step: 1, Default: 3, Unit: "level"},
	}
}

// Default returns the full eight-parameter space of paper Table 1.
func Default() *Space { return MustSpace(Table1()) }

// WithAdmission returns the Table 1 space extended with the admission-gate
// parameters: ten dimensions, searched by the same Q-learning machinery.
func WithAdmission() *Space { return MustSpace(append(Table1(), AdmissionDefs()...)) }

// WithCapacity returns the Table 1 space extended with the VM capacity level:
// nine dimensions, letting Q-learning trade software knobs against
// provisioning (price the level via core.Options.CapacityCost so bigger VMs
// are not a free lunch).
func WithCapacity() *Space { return MustSpace(append(Table1(), CapacityDefs()...)) }

// Len returns the number of parameters.
func (s *Space) Len() int { return len(s.defs) }

// Defs returns a copy of the parameter definitions in order.
func (s *Space) Defs() []Def {
	out := make([]Def, len(s.defs))
	copy(out, s.defs)
	return out
}

// Def returns the definition at position i.
func (s *Space) Def(i int) Def { return s.defs[i] }

// Lookup returns the position of param within the space.
func (s *Space) Lookup(param Param) (int, bool) {
	i, ok := s.index[param]
	return i, ok
}

// States returns the total number of lattice points (the product of
// per-parameter level counts; 12·11·9·9·12·18·9·9 ≈ 1.9e8 for Table 1).
// NewSpace rejects lattices whose count overflows an int.
func (s *Space) States() int {
	return int(s.strides[0]) * s.defs[0].Levels()
}

// Ordinal returns the mixed-radix lattice ordinal of c, Σ index_i·Stride(i):
// a dense integer identity for lattice points, unique within the space and
// below States(). c must be on the lattice (Validate).
func (s *Space) Ordinal(c Config) uint64 {
	var ord uint64
	for i, d := range s.defs {
		ord += uint64((c[i]-d.Min)/d.Step) * s.strides[i]
	}
	return ord
}

// At fills c with the lattice point whose Ordinal is ord and returns it.
func (s *Space) At(ord uint64, c Config) Config {
	for i, d := range s.defs {
		c[i] = d.Min + int(ord/s.strides[i])*d.Step
		ord %= s.strides[i]
	}
	return c
}

// Grouping returns the space's parameter grouping by Def.Group, derived on
// first use. It fails when a group's member ranges share no value.
func (s *Space) Grouping() (*Grouping, error) { return s.grouping() }

// Stride returns the ordinal distance of one lattice step of parameter i: an
// action increasing (decreasing) parameter i moves Ordinal by +Stride(i)
// (−Stride(i)).
func (s *Space) Stride(i int) uint64 { return s.strides[i] }

// DefaultConfig returns the configuration with every parameter at its
// default, snapped onto the lattice.
func (s *Space) DefaultConfig() Config {
	c := make(Config, len(s.defs))
	for i, d := range s.defs {
		c[i] = d.Value(d.Index(d.Default))
	}
	return c
}

// Clamp snaps every value of c onto the parameter lattice, returning a new
// configuration. Inputs of the wrong length cause an error.
func (s *Space) Clamp(c Config) (Config, error) {
	if len(c) != len(s.defs) {
		return nil, fmt.Errorf("config: got %d values for %d parameters", len(c), len(s.defs))
	}
	out := make(Config, len(c))
	for i, d := range s.defs {
		out[i] = d.Value(d.Index(c[i]))
	}
	return out, nil
}

// Validate reports whether c is exactly on the lattice.
func (s *Space) Validate(c Config) error {
	if len(c) != len(s.defs) {
		return fmt.Errorf("config: got %d values for %d parameters", len(c), len(s.defs))
	}
	for i, d := range s.defs {
		v := c[i]
		if v < d.Min || v > d.Max || (v-d.Min)%d.Step != 0 {
			return fmt.Errorf("config: %s=%d not on lattice [%d,%d] step %d",
				d.Name, v, d.Min, d.Max, d.Step)
		}
	}
	return nil
}

// Config is a point in the configuration lattice: one value per parameter, in
// space order.
type Config []int

// Clone returns a deep copy.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports value equality.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for Q-table and cache lookups.
func (c Config) Key() string {
	// Rendered into a stack buffer (the shipped spaces' keys are under 40
	// bytes), so the returned string is the only allocation.
	buf := make([]byte, 0, 64)
	for i, v := range c {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// ParseKey parses a Key back into a configuration.
func ParseKey(key string) (Config, error) {
	if key == "" {
		return nil, errors.New("config: empty key")
	}
	parts := strings.Split(key, ",")
	c := make(Config, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("config: bad key %q: %w", key, err)
		}
		c[i] = v
	}
	return c, nil
}

// Get returns the value of param within the space, or false when absent.
func (c Config) Get(s *Space, param Param) (int, bool) {
	i, ok := s.Lookup(param)
	if !ok || i >= len(c) {
		return 0, false
	}
	return c[i], true
}

// With returns a copy of c with param set to v (not lattice-checked).
func (c Config) With(s *Space, param Param, v int) Config {
	out := c.Clone()
	if i, ok := s.Lookup(param); ok && i < len(out) {
		out[i] = v
	}
	return out
}

// Format renders the configuration with parameter names for logs.
func (c Config) Format(s *Space) string {
	var b strings.Builder
	for i, d := range s.defs {
		if i > 0 {
			b.WriteString(" ")
		}
		if i < len(c) {
			fmt.Fprintf(&b, "%s=%d", d.Name, c[i])
		}
	}
	return b.String()
}
