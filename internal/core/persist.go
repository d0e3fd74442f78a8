package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/regression"
)

// policyJSON is the serialized form of a Policy. The configuration space is
// not serialized; loading requires the same space the policy was trained on
// (validated structurally via the group lattices).
type policyJSON struct {
	policyHeader
	QTable *mdp.QTableJSON `json:"qtable"`
}

// policyHeader is every field of a policy document but its Q-table, in the
// document's order.
type policyHeader struct {
	Name    string      `json:"name"`
	SLA     float64     `json:"slaSeconds"`
	FloorRT float64     `json:"floorRtSeconds"`
	Groups  []groupJSON `json:"groups"`
	Coeffs  []float64   `json:"regressionCoeffs"`
}

type groupJSON struct {
	Group   int   `json:"group"`
	Members []int `json:"members"`
	Min     int   `json:"min"`
	Max     int   `json:"max"`
	Step    int   `json:"step"`
}

// Save writes the policy as JSON. Policies embed the offline-trained group
// Q-table and the regression surface, so a saved policy restores without
// re-sampling the system.
//
// The bytes are the ones json.Encoder writes for the policyJSON document:
// the header through encoding/json, then a qtable field whose "initial" is
// always 0 (a full table never serves it) and whose rows, nearly all of the
// file, are appended by hand (appendRows) in the order the encoder sorts a
// map's keys. The whole document goes out in one Write; a NaN or infinite
// value is an error, and then nothing is written.
func (p *Policy) Save(w io.Writer) error {
	head, err := json.Marshal(p.header())
	if err != nil {
		return fmt.Errorf("core: encode policy: %w", err)
	}
	a := p.lattice.Actions()
	buf := make([]byte, 0, len(head)+64+len(p.q)*saveBytesPerValue)
	buf = append(buf, head[:len(head)-1]...) // reopen the header object
	buf = append(buf, `,"qtable":{"actions":`...)
	buf = strconv.AppendInt(buf, int64(a), 10)
	buf = append(buf, `,"initial":0,"rows":`...)
	if buf, err = p.appendRows(buf); err != nil {
		return err
	}
	buf = append(buf, "}}\n"...)
	_, err = w.Write(buf)
	return err
}

// saveBytesPerValue sizes Save's buffer: a Q-value's shortest text plus its
// comma, with the row's share of its key, is about 20 bytes, so the buffer
// rarely has to grow.
const saveBytesPerValue = 24

// header is the policy's document without its Q-table.
func (p *Policy) header() policyHeader {
	out := policyHeader{
		Name:    p.name,
		SLA:     p.sla,
		FloorRT: p.floorRT,
		Coeffs:  p.quad.Coeffs(),
	}
	defs := p.groups.Space().Defs()
	out.Groups = slices.Grow(out.Groups, len(defs)) // still nil without groups: the encoder writes null
	for gi, d := range defs {
		out.Groups = append(out.Groups, groupJSON{
			Group:   int(d.Group),
			Members: p.groups.Members(gi),
			Min:     d.Min,
			Max:     d.Max,
			Step:    d.Step,
		})
	}
	return out
}

// appendRows appends the Q-table's rows as the JSON object encoding/json
// writes for a map from state key to row: keys in byte-wise order (the
// lattice's cached keyOrder), each row an array of numbers. A trained policy
// repeats most of its values — a move's Q-value is fixed by the state it
// leads to — so each value is formatted once and later copies are taken from
// the buffer (floatMemo).
func (p *Policy) appendRows(buf []byte) ([]byte, error) {
	keys := p.lattice.States()
	memo := newFloatMemo(len(p.q))
	buf = append(buf, '{')
	for i, ord := range p.lattice.keyOrder() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, keys[ord])
		buf = append(buf, ':', '[')
		for j, v := range p.rowAt(int(ord)) {
			if j > 0 {
				buf = append(buf, ',')
			}
			var ok bool
			if buf, ok = memo.append(buf, v); !ok {
				return nil, fmt.Errorf("core: encode policy: state %q holds %v, which JSON cannot represent", keys[ord], v)
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, '}'), nil
}

// floatMemo is a direct-mapped table from a float's bits to where in the
// output buffer its JSON text was first written. A hit compares the whole
// bit pattern, so a collision costs one more formatting, never a wrong byte.
type floatMemo struct {
	slots []floatSlot
	shift uint
}

type floatSlot struct {
	bits   uint64
	off, n uint32 // n == 0: empty
}

// newFloatMemo sizes a memo for n values: a power of two near n/4 slots,
// between 2^6 and 2^15.
func newFloatMemo(n int) floatMemo {
	bits := uint(6)
	for bits < 15 && 1<<bits < n/4 {
		bits++
	}
	return floatMemo{slots: make([]floatSlot, 1<<bits), shift: 64 - bits}
}

// append appends f's JSON text to buf, copying it from an earlier occurrence
// when the memo holds one. It reports false, appending nothing, for NaN and
// ±Inf.
func (m *floatMemo) append(buf []byte, f float64) ([]byte, bool) {
	bits := math.Float64bits(f)
	s := &m.slots[(bits*0x9e3779b97f4a7c15)>>m.shift]
	if s.n != 0 && s.bits == bits {
		return append(buf, buf[s.off:s.off+s.n]...), true
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, false
	}
	off := len(buf)
	buf = appendJSONFloat(buf, f)
	if uint64(len(buf)) <= math.MaxUint32 {
		*s = floatSlot{bits: bits, off: uint32(off), n: uint32(len(buf) - off)}
	}
	return buf, true
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest text that reads back to f, in 'f' form unless |f| < 1e-6 or
// |f| ≥ 1e21, where it is 'e' form with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}

// appendJSONString appends s as encoding/json writes a string. A string of
// printable ASCII that needs no escape — every lattice key — is copied
// between quotes; any other goes through the encoder itself.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// LoadPolicy reads a policy previously written by Save, binding it to the
// given configuration space. The space must structurally match the one the
// policy was trained on (same parameters and group lattices).
func LoadPolicy(r io.Reader, space *config.Space) (*Policy, error) {
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	var raw policyJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: decode policy: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("core: decode policy: data after the document")
	}
	groups, err := space.Grouping()
	if err != nil {
		return nil, err
	}
	defs := groups.Space().Defs()
	if len(defs) != len(raw.Groups) {
		return nil, fmt.Errorf("core: policy has %d groups, space %d", len(raw.Groups), len(defs))
	}
	for i, g := range raw.Groups {
		d := defs[i]
		if int(d.Group) != g.Group || d.Min != g.Min || d.Max != g.Max || d.Step != g.Step {
			return nil, fmt.Errorf("core: group %d lattice mismatch (policy %+v, space %+v)", i, g, d)
		}
		if !slices.Equal(groups.Members(i), g.Members) {
			return nil, fmt.Errorf("core: group %d member mismatch (policy %v, space %v)",
				i, g.Members, groups.Members(i))
		}
	}
	if raw.SLA <= 0 {
		return nil, fmt.Errorf("core: policy SLA %v", raw.SLA)
	}
	quad, err := regression.QuadraticFromCoeffs(len(defs), raw.Coeffs)
	if err != nil {
		return nil, err
	}
	if raw.QTable == nil {
		return nil, errors.New("core: policy lacks a Q-table")
	}
	a := raw.QTable.Actions
	if a != 2*len(defs)+1 {
		return nil, fmt.Errorf("core: policy Q-table has %d actions, want %d", a, 2*len(defs)+1)
	}
	// The file comes from outside the program (a registry directory): its
	// Q-table must hold exactly the group lattice's rows, or seeding would
	// read states the offline pass never trained. Each row is copied into the
	// slab at its state's ordinal. The table's initial value is not kept: a
	// table holding every state never serves it.
	lattice, err := groupLattice(groups.Space())
	if err != nil {
		return nil, err
	}
	keys := lattice.States()
	if len(raw.QTable.Rows) != len(keys) {
		return nil, fmt.Errorf("core: policy Q-table has %d rows, group lattice %d states",
			len(raw.QTable.Rows), len(keys))
	}
	q := make([]float64, len(keys)*a)
	for ord, key := range keys {
		row, ok := raw.QTable.Rows[key]
		if !ok {
			return nil, fmt.Errorf("core: policy Q-table lacks group state %q", key)
		}
		if len(row) != a {
			return nil, fmt.Errorf("core: policy Q-table state %q has %d actions, want %d", key, len(row), a)
		}
		copy(q[ord*a:], row)
	}
	return &Policy{
		name:    raw.Name,
		space:   space,
		groups:  groups,
		lattice: lattice,
		q:       q,
		quad:    quad,
		sla:     raw.SLA,
		floorRT: raw.FloorRT,
		intern:  &policyIntern{},
	}, nil
}
