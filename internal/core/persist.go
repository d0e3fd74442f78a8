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
	buf := make([]byte, 0, len(head)+64+p.lattice.Len()*a*saveBytesPerValue)
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
// lattice's cached keyOrder), each row an array of numbers. Every feasible
// entry is one of the values the policy keeps (Policy.v), so each of those
// is formatted once, where a row first reads it, and later copies are taken
// from the buffer.
func (p *Policy) appendRows(buf []byte) ([]byte, error) {
	keys := p.lattice.States()
	text := make([]span, len(p.v)) // where v[k]'s text sits in buf; n == 0: not yet written
	buf = append(buf, '{')
	for i, ord := range p.lattice.keyOrder() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, keys[ord])
		buf = append(buf, ':', '[')
		for a := range p.lattice.Actions() {
			if a > 0 {
				buf = append(buf, ',')
			}
			k := p.slot(int(ord), a)
			switch {
			case k < 0:
				buf = append(buf, '0')
			case text[k].n != 0:
				buf = append(buf, buf[text[k].off:text[k].off+text[k].n]...)
			default:
				v := p.v[k]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("core: encode policy: state %q holds %v, which JSON cannot represent", keys[ord], v)
				}
				off := len(buf)
				buf = appendJSONFloat(buf, v)
				text[k] = span{off: off, n: len(buf) - off}
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, '}'), nil
}

// span is a run of bytes in a buffer.
type span struct{ off, n int }

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
	// read states the offline pass never trained. The table's initial value
	// is not kept: a table holding every state never serves it.
	lattice, err := groupLattice(groups.Space())
	if err != nil {
		return nil, err
	}
	keys := lattice.States()
	if len(raw.QTable.Rows) != len(keys) {
		return nil, fmt.Errorf("core: policy Q-table has %d rows, group lattice %d states",
			len(raw.QTable.Rows), len(keys))
	}
	rows := make([][]float64, len(keys))
	for ord, key := range keys {
		row, ok := raw.QTable.Rows[key]
		if !ok {
			return nil, fmt.Errorf("core: policy Q-table lacks group state %q", key)
		}
		if len(row) != a {
			return nil, fmt.Errorf("core: policy Q-table state %q has %d actions, want %d", key, len(row), a)
		}
		rows[ord] = row
	}
	p := &Policy{
		name:    raw.Name,
		space:   space,
		groups:  groups,
		lattice: lattice,
		quad:    quad,
		sla:     raw.SLA,
		floorRT: raw.FloorRT,
	}
	if err := p.bindRows(rows); err != nil {
		return nil, err
	}
	return p, nil
}

// bindRows sets the policy's values and sweep direction (Policy.v) to the
// ones that derive rows, the group Q-table by ordinal: a last sweep run
// forward, else backward. Each value is the first feasible entry, by
// ordinal, that holds it; a value no entry holds stays 0. A table that no
// solve from zeros ends with — a feasible entry that disagrees with an
// earlier one holding the same value, or an infeasible entry other than 0 —
// is an error naming, for each direction, the first state whose row the
// values do not derive.
func (p *Policy) bindRows(rows [][]float64) error {
	p.v = make([]float64, 2*len(rows))
	known := make([]bool, len(p.v))
	var bad [2]int
	for i, forward := range []bool{true, false} {
		p.forward = forward
		clear(p.v)
		clear(known)
		for s, row := range rows {
			for a, v := range row {
				if k := p.slot(s, a); k >= 0 && !known[k] {
					p.v[k], known[k] = v, true
				}
			}
		}
		if bad[i] = p.firstMismatch(rows); bad[i] < 0 {
			return nil
		}
	}
	keys := p.lattice.States()
	return fmt.Errorf("core: policy Q-table is no offline solve's output: state %q differs from a forward last sweep, state %q from a backward one",
		keys[bad[0]], keys[bad[1]])
}

// firstMismatch returns the first ordinal whose row rowAt does not derive bit
// for bit, or -1.
func (p *Policy) firstMismatch(rows [][]float64) int {
	derived := make([]float64, 0, p.lattice.Actions())
	for s, row := range rows {
		derived = p.rowAt(derived[:0], s)
		for a, v := range row {
			if math.Float64bits(v) != math.Float64bits(derived[a]) {
				return s
			}
		}
	}
	return -1
}
