package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/regression"
)

// policyVersion is the policy document format Save writes. A document with
// no version is the first format, which held the group Q-table's rows in
// place of a schedule and digest; LoadPolicy still reads it.
const policyVersion = 2

// ErrPolicyDigest marks a policy whose offline solve is not the one it was
// recorded with: a policy document whose digest, or whose Q-table rows, the
// solve of its own surface and schedule does not reproduce, or a fleet
// registry recipe whose retrained policy's digest is not the published one.
var ErrPolicyDigest = errors.New("core: policy does not match its recorded solve")

// policyJSON is the serialized form of a Policy: what determines its group
// Q-table, not the table. The regression surface (coefficients, floor RT)
// and the SLA price each group state's reward; Batch is the offline schedule
// the table was solved under; Digest is Policy.Digest, which the solve on
// load must reproduce. The configuration space is not serialized; loading
// requires the same space the policy was trained on (validated structurally
// via the group lattices). QTable is read from first-format documents only.
type policyJSON struct {
	Version int              `json:"version,omitempty"`
	Name    string           `json:"name"`
	SLA     float64          `json:"slaSeconds"`
	FloorRT float64          `json:"floorRtSeconds"`
	Groups  []groupJSON      `json:"groups"`
	Coeffs  []float64        `json:"regressionCoeffs"`
	Batch   *mdp.BatchConfig `json:"batch,omitempty"`
	Digest  string           `json:"digest,omitempty"`
	QTable  *mdp.QTableJSON  `json:"qtable,omitempty"`
}

type groupJSON struct {
	Group   int   `json:"group"`
	Members []int `json:"members"`
	Min     int   `json:"min"`
	Max     int   `json:"max"`
	Step    int   `json:"step"`
}

// groupsJSON is a grouping's groups as a policy document lists them.
func groupsJSON(groups *config.Grouping) []groupJSON {
	defs := groups.Space().Defs()
	out := make([]groupJSON, len(defs))
	for gi, d := range defs {
		out[gi] = groupJSON{Group: int(d.Group), Members: groups.Members(gi), Min: d.Min, Max: d.Max, Step: d.Step}
	}
	return out
}

// Save writes the policy as a JSON document of what determines it: the
// regression surface, the SLA, the groups, the offline schedule and the
// digest (policyJSON). LoadPolicy solves the group Q-table again from those,
// so a saved policy restores without re-sampling the system. A NaN or
// infinite value is an error, and then nothing is written.
func (p *Policy) Save(w io.Writer) error {
	doc := policyJSON{
		Version: policyVersion,
		Name:    p.name,
		SLA:     p.sla,
		FloorRT: p.floorRT,
		Groups:  groupsJSON(p.groups),
		Coeffs:  p.quad.Coeffs(),
		Batch:   &p.schedule,
		Digest:  p.Digest(),
	}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("core: encode policy: %w", err)
	}
	return nil
}

// LoadPolicy reads a policy previously written by Save, binding it to the
// given configuration space. The space must structurally match the one the
// policy was trained on (same parameters and group lattices). The group
// Q-table is solved again from the document's surface under its schedule
// (Policy.solve); a solve whose digest is not the stored one is an
// ErrPolicyDigest error. A first-format document, which stores rows instead,
// is solved under DefaultOfflineBatch and must hold exactly the solved rows.
func LoadPolicy(r io.Reader, space *config.Space) (*Policy, error) {
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	var doc policyJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decode policy: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("core: decode policy: data after the document")
	}
	batch := DefaultOfflineBatch()
	switch doc.Version {
	case 0: // the first format
		if doc.Batch != nil || doc.Digest != "" || doc.QTable == nil {
			return nil, errors.New("core: a policy without a version holds a Q-table, and no schedule or digest")
		}
	case policyVersion:
		if doc.Batch == nil || doc.Digest == "" || doc.QTable != nil {
			return nil, fmt.Errorf("core: a version %d policy holds a schedule and a digest, and no Q-table", policyVersion)
		}
		batch = *doc.Batch
	default:
		return nil, fmt.Errorf("core: policy version %d, want %d", doc.Version, policyVersion)
	}
	if err := checkSchedule(batch); err != nil {
		return nil, err
	}
	groups, err := space.Grouping()
	if err != nil {
		return nil, err
	}
	if want := groupsJSON(groups); !slices.EqualFunc(doc.Groups, want, func(a, b groupJSON) bool {
		return a.Group == b.Group && a.Min == b.Min && a.Max == b.Max && a.Step == b.Step && slices.Equal(a.Members, b.Members)
	}) {
		return nil, fmt.Errorf("core: policy groups %+v, space %+v", doc.Groups, want)
	}
	if doc.SLA <= 0 {
		return nil, fmt.Errorf("core: policy SLA %v", doc.SLA)
	}
	quad, err := regression.QuadraticFromCoeffs(len(doc.Groups), doc.Coeffs)
	if err != nil {
		return nil, err
	}
	p := &Policy{name: doc.Name, space: space, groups: groups, quad: quad, sla: doc.SLA, floorRT: doc.FloorRT}
	if err := p.solve(batch, parallel.Options{Procs: 1}); err != nil {
		return nil, err
	}
	if doc.QTable != nil {
		rows, err := latticeRows(doc.QTable, p.lattice)
		if err != nil {
			return nil, err
		}
		if bad := p.firstMismatch(rows); bad >= 0 {
			return nil, fmt.Errorf("%w: state %q's Q row is not the solve of the policy's surface", ErrPolicyDigest, p.lattice.States()[bad])
		}
	} else if got := p.Digest(); got != doc.Digest {
		return nil, fmt.Errorf("%w: the document records %s, its surface solves to %s", ErrPolicyDigest, doc.Digest, got)
	}
	return p, nil
}

// latticeRows returns a first-format document's Q-table rows by lattice
// ordinal. The file comes from outside the program: its table must hold
// exactly the group lattice's rows, each one value per action. The table's
// initial value is not read: a table holding every state never serves it.
func latticeRows(table *mdp.QTableJSON, lattice *mdp.Structure) ([][]float64, error) {
	if a := lattice.Actions(); table.Actions != a {
		return nil, fmt.Errorf("core: policy Q-table has %d actions, want %d", table.Actions, a)
	}
	keys := lattice.States()
	if len(table.Rows) != len(keys) {
		return nil, fmt.Errorf("core: policy Q-table has %d rows, group lattice %d states", len(table.Rows), len(keys))
	}
	rows := make([][]float64, len(keys))
	for ord, key := range keys {
		row, ok := table.Rows[key]
		if !ok {
			return nil, fmt.Errorf("core: policy Q-table lacks group state %q", key)
		}
		if len(row) != table.Actions {
			return nil, fmt.Errorf("core: policy Q-table state %q has %d actions, want %d", key, len(row), table.Actions)
		}
		rows[ord] = row
	}
	return rows, nil
}

// firstMismatch returns the first ordinal whose row rowAt does not derive bit
// for bit, or -1.
func (p *Policy) firstMismatch(rows [][]float64) int {
	derived := make([]float64, 0, p.lattice.Actions())
	for s, row := range rows {
		if derived = p.rowAt(derived[:0], s); !sameBits(row, derived) {
			return s
		}
	}
	return -1
}
