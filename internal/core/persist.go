package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/regression"
)

// policyJSON is the serialized form of a Policy. The configuration space is
// not serialized; loading requires the same space the policy was trained on
// (validated structurally via the group lattices).
type policyJSON struct {
	Name    string          `json:"name"`
	SLA     float64         `json:"slaSeconds"`
	FloorRT float64         `json:"floorRtSeconds"`
	Groups  []groupJSON     `json:"groups"`
	Coeffs  []float64       `json:"regressionCoeffs"`
	QTable  *mdp.QTableJSON `json:"qtable"`
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
func (p *Policy) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(p.document())
}

// document is the policy's serialized form. The Q-table is one of its fields,
// so one encoder pass writes the whole file. Its rows are the slab's, keyed by
// the shared lattice's state keys — the only place the group Q-table is
// addressed by string — in a map built per call.
func (p *Policy) document() policyJSON {
	keys := p.lattice.States()
	rows := make(map[string][]float64, len(keys))
	for ord, key := range keys {
		rows[key] = p.rowAt(ord)
	}
	out := policyJSON{
		Name:    p.name,
		SLA:     p.sla,
		FloorRT: p.floorRT,
		Coeffs:  p.quad.Coeffs(),
		QTable:  &mdp.QTableJSON{Actions: p.lattice.Actions(), Rows: rows},
	}
	for gi, d := range p.groups.Space().Defs() {
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

// LoadPolicy reads a policy previously written by Save, binding it to the
// given configuration space. The space must structurally match the one the
// policy was trained on (same parameters and group lattices).
func LoadPolicy(r io.Reader, space *config.Space) (*Policy, error) {
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	var raw policyJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: decode policy: %w", err)
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
