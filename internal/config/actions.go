package config

import (
	"fmt"
	"slices"
	"sync"
)

// Direction is the per-parameter reconfiguration move of the paper's action
// set: increase, decrease or keep.
type Direction int

// The three basic actions of paper §3.2.
const (
	Decrease Direction = iota - 1
	Keep
	Increase
)

// String returns the action verb.
func (d Direction) String() string {
	switch d {
	case Decrease:
		return "decrease"
	case Keep:
		return "keep"
	case Increase:
		return "increase"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Action adjusts a single parameter by one lattice step (or keeps the whole
// configuration unchanged). The paper's action vectors touch one parameter at
// a time; the global keep is collapsed into a single action, giving
// 2·len(space)+1 actions in total.
type Action struct {
	// ParamIndex is the position of the parameter within the Space. It is
	// ignored when Dir is Keep.
	ParamIndex int
	Dir        Direction
}

// Actions enumerates the action set for a space: keep first, then for each
// parameter an increase and a decrease. The ordering is stable so action
// indices are portable across runs and serialized Q-tables. The set depends
// only on the parameter count, so every space shares one: callers must not
// mutate it.
func Actions(s *Space) []Action {
	n := 2*s.Len() + 1
	actionSet.Lock()
	defer actionSet.Unlock()
	for i := len(actionSet.all) / 2; len(actionSet.all) < n; i++ {
		actionSet.all = append(actionSet.all, Action{ParamIndex: i, Dir: Increase}, Action{ParamIndex: i, Dir: Decrease})
	}
	return actionSet.all[:n:n]
}

// actionSet is the action set of the largest space Actions was asked for;
// a smaller space's is a prefix of it. It only grows, never rewriting an
// action it holds, so the prefixes Actions returned stay valid.
var actionSet = struct {
	sync.Mutex
	all []Action
}{all: []Action{{Dir: Keep}}}

// Transitions appends to dst the transition table of the action set
// restricted to the lattice points ords: entry s*(2·Len()+1)+a of the
// appended part is the dense index of the point Actions(s)[a] reaches from
// ords[s], or −1 when the move leaves the lattice or lands on a point index
// reports as absent (−1). It is the one place a deterministic configuration
// MDP's feasibility rule is written.
func (s *Space) Transitions(dst []int32, ords []uint64, index func(ord uint64) int32) []int32 {
	actions := 2*len(s.defs) + 1
	base := len(dst)
	dst = slices.Grow(dst, len(ords)*actions)[:base+len(ords)*actions]
	for si, ord := range ords {
		row := dst[base+si*actions : base+(si+1)*actions]
		row[0] = int32(si) // keep
		rem := ord
		for i, d := range s.defs {
			stride := s.strides[i]
			level := int(rem / stride)
			rem %= stride
			row[1+2*i], row[2+2*i] = -1, -1
			if level+1 < d.Levels() {
				row[1+2*i] = index(ord + stride)
			}
			if level > 0 {
				row[2+2*i] = index(ord - stride)
			}
		}
	}
	return dst
}

// Apply returns the configuration reached by taking the action from c within
// the space, and whether the move was feasible. A move off the lattice edge
// (increase at Max, decrease at Min) is infeasible and returns c unchanged.
func (a Action) Apply(s *Space, c Config) (Config, bool) {
	out := c.Clone()
	if !a.Feasible(s, c) {
		return out, false
	}
	if a.Dir != Keep {
		out[a.ParamIndex] += int(a.Dir) * s.defs[a.ParamIndex].Step
	}
	return out, true
}

// Feasible reports whether Apply would succeed from c, without building the
// successor configuration (no allocation).
func (a Action) Feasible(s *Space, c Config) bool {
	if a.Dir == Keep {
		return true
	}
	if a.ParamIndex < 0 || a.ParamIndex >= s.Len() || a.ParamIndex >= len(c) {
		return false
	}
	d := &s.defs[a.ParamIndex]
	v := c[a.ParamIndex] + int(a.Dir)*d.Step
	return v >= d.Min && v <= d.Max
}

// Describe renders the action with its parameter name.
func (a Action) Describe(s *Space) string {
	if a.Dir == Keep {
		return "keep"
	}
	if a.ParamIndex < 0 || a.ParamIndex >= s.Len() {
		return fmt.Sprintf("%s(param %d)", a.Dir, a.ParamIndex)
	}
	return fmt.Sprintf("%s %s", a.Dir, s.Def(a.ParamIndex).Name)
}
