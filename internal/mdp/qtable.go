// Package mdp implements the reinforcement-learning machinery of the paper:
// batch training over a deterministic model of the configuration MDP — the
// fixed point paper Algorithm 1's ε-greedy SARSA estimates, solved rather
// than sampled (Solve) — and its hyper-parameters. Offline policy training
// runs Solve over the whole group lattice, sweeping state values alone; the
// agent's per-interval retraining runs the same solve over its region's
// GrowingStructure, which keeps its state values and derives the Q-values.
//
// The package is independent of web-system specifics: states and actions
// are dense indices, and each state lists its feasible moves. The
// string-keyed Q-table (QTable, with its shared seeded-row store), the
// ε-greedy Learner with its TD update, and BatchTrain serve only the
// benchmark ledger's probes and the oracles the tests hold Solve and the
// agent to.
package mdp

import (
	"encoding/json"
	"io"
)

// QTable maps state keys to per-action Q values. All rows have the same
// action count. The zero value is unusable; construct with NewQTable.
type QTable struct {
	actions int
	rows    map[string][]float64
	initial float64
	shared  *SharedRows
}

// Seeder produces initial Q-value rows for states a table has never seen. It
// is how an initialization policy (paper §4.1) primes online learning, through
// a SharedRows store: the returned slice must have the table's action count,
// or nil to fall back to the constant initial value. Seeders must be
// deterministic.
type Seeder func(state string) []float64

// NewQTable returns an empty table for the given action count. Unvisited
// states read as rows filled with initial (optimistic initialization uses a
// positive value; the paper's offline training starts from zero).
func NewQTable(actions int, initial float64) *QTable {
	if actions < 1 {
		panic("mdp: QTable needs at least one action")
	}
	return &QTable{
		actions: actions,
		rows:    make(map[string][]float64),
		initial: initial,
	}
}

// Actions returns the per-state action count.
func (q *QTable) Actions() int { return q.actions }

// SetShared installs (or clears, with nil) a shared copy-on-write row store.
// With a store installed the table serves unvisited states from the store's
// memoized seeded rows (computed once per store instead of once per table),
// interns state keys through it, and materializes a private row only on
// write. Already materialized rows are unaffected.
func (q *QTable) SetShared(s *SharedRows) {
	if s != nil && s.actions != q.actions {
		panic("mdp: SharedRows action count does not match table")
	}
	q.shared = s
}

// served returns the row the table serves for state without materializing
// anything, and whether that row is the table's own materialized one. The
// read chain, spelled here once: the materialized row, else the shared
// store's seeded row, else nil — standing for a row of the constant initial
// value (the store already drops seeded rows of the wrong length). A row that
// is not the table's own is shared; callers must not write through it.
func (q *QTable) served(state string) (row []float64, own bool) {
	if row, ok := q.rows[state]; ok {
		return row, true
	}
	if q.shared != nil {
		return q.shared.row(state), false
	}
	return nil, false
}

// fill writes a served row into dst: a copy of row, or the constant initial
// value when row is nil. dst must have the table's action count.
func (q *QTable) fill(dst, row []float64) {
	if row != nil {
		copy(dst, row)
		return
	}
	for i := range dst {
		dst[i] = q.initial
	}
}

// materialize installs a private copy of the served row as state's own row,
// interning the key through the shared store when there is one.
func (q *QTable) materialize(state string, served []float64) []float64 {
	row := make([]float64, q.actions)
	q.fill(row, served)
	if q.shared != nil {
		state = q.shared.Intern(state)
	}
	q.rows[state] = row
	return row
}

// Row returns the mutable Q-value row for state, materializing it on first
// access from the row the table serves for it.
func (q *QTable) Row(state string) []float64 {
	row, own := q.served(state)
	if !own {
		row = q.materialize(state, row)
	}
	return row
}

// ReadRow returns a read-only view of the row the table serves for state: the
// materialized row if present, else the shared store's seeded row without
// materializing a private copy. A state neither has materializes at the
// constant initial value, as Row does. Callers must not mutate the returned
// slice — it may be shared across tables.
func (q *QTable) ReadRow(state string) []float64 {
	row, _ := q.served(state)
	if row == nil {
		row = q.materialize(state, nil)
	}
	return row
}

// OwnRows returns the table's own row for each of states, by index,
// materializing the ones it does not own yet as Row would — a copy of the
// served row, the key interned through the shared store — but with every new
// row cut from one backing array, and an empty table's map presized for them.
// It binds a table to BatchTrain's slab: one lookup per state. The states
// must be distinct, or two indices would share a row.
func (q *QTable) OwnRows(states []string) [][]float64 {
	rows := make([][]float64, len(states))
	missing := make([]int32, 0, len(states)) // indices of states without an own row; rows holds the served one
	for s, state := range states {
		row, own := q.served(state)
		rows[s] = row
		if !own {
			missing = append(missing, int32(s))
		}
	}
	if len(missing) == 0 {
		return rows
	}
	if len(q.rows) == 0 {
		q.rows = make(map[string][]float64, len(missing))
	}
	a := q.actions
	backing := make([]float64, len(missing)*a)
	for k, s := range missing {
		row := backing[k*a : (k+1)*a : (k+1)*a]
		q.fill(row, rows[s])
		state := states[s]
		if q.shared != nil {
			state = q.shared.Intern(state)
		}
		q.rows[state] = row
		rows[s] = row
	}
	return rows
}

// Get returns Q(state, action) without materializing the row.
func (q *QTable) Get(state string, action int) float64 {
	if row, _ := q.served(state); row != nil {
		return row[action]
	}
	return q.initial
}

// Set assigns Q(state, action).
func (q *QTable) Set(state string, action int, value float64) {
	q.Row(state)[action] = value
}

// QTableJSON is the serialized form of a QTable, what Save writes. The
// documents that embedded a table as a field — a first-format policy, a
// version-1 agent snapshot — are still read through it.
type QTableJSON struct {
	Actions int                  `json:"actions"`
	Initial float64              `json:"initial"`
	Rows    map[string][]float64 `json:"rows"`
}

// JSON returns the table's serialized form. It shares the table's rows, so
// encode it before the table is written again.
func (q *QTable) JSON() *QTableJSON {
	return &QTableJSON{Actions: q.actions, Initial: q.initial, Rows: q.rows}
}

// Save writes the table as JSON.
func (q *QTable) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(q.JSON())
}
