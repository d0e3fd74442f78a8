package mdp

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"testing"
)

// Best returns the greedy action for state and its value. Ties break toward
// the lowest action index so greedy policies are deterministic. Unvisited
// states are read without materializing a row.
func (q *QTable) Best(state string) (int, float64) {
	row, _ := q.served(state)
	if row == nil {
		return 0, q.initial
	}
	best, bestV := 0, row[0]
	for i := 1; i < len(row); i++ {
		if row[i] > bestV {
			best, bestV = i, row[i]
		}
	}
	return best, bestV
}

// MaxValue returns max_a Q(state, a).
func (q *QTable) MaxValue(state string) float64 {
	_, v := q.Best(state)
	return v
}

func TestQTableBasics(t *testing.T) {
	q := NewQTable(3, 0.5)
	if q.Actions() != 3 {
		t.Fatalf("Actions = %d", q.Actions())
	}
	if q.Len() != 0 {
		t.Fatal("fresh table not empty")
	}
	if got := q.Get("s", 1); got != 0.5 {
		t.Fatalf("unvisited Get = %v, want initial", got)
	}
	q.Set("s", 1, 2.0)
	if got := q.Get("s", 1); got != 2.0 {
		t.Fatalf("Get after Set = %v", got)
	}
	if got := q.Get("s", 0); got != 0.5 {
		t.Fatalf("other action = %v, want initial", got)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQTableBest(t *testing.T) {
	q := NewQTable(3, 0)
	a, v := q.Best("unseen")
	if a != 0 || v != 0 {
		t.Fatalf("unseen Best = %d,%v", a, v)
	}
	q.Set("s", 0, 1)
	q.Set("s", 1, 5)
	q.Set("s", 2, 5)
	a, v = q.Best("s")
	if a != 1 || v != 5 {
		t.Fatalf("Best = %d,%v; ties must break low", a, v)
	}
	if q.MaxValue("s") != 5 {
		t.Fatal("MaxValue mismatch")
	}
}

func TestQTablePanicsOnBadActions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewQTable(0) did not panic")
		}
	}()
	NewQTable(0, 0)
}

func TestQTableClone(t *testing.T) {
	q := NewQTable(2, 0)
	q.Set("s", 0, 1)
	c := q.Clone()
	c.Set("s", 0, 5)
	if q.Get("s", 0) != 1 {
		t.Fatal("clone aliases original")
	}
	if c.Actions() != 2 {
		t.Fatal("clone lost action count")
	}
}

func TestQTableStatesSorted(t *testing.T) {
	q := NewQTable(1, 0)
	for _, s := range []string{"c", "a", "b"} {
		q.Row(s)
	}
	states := q.States()
	if len(states) != 3 || states[0] != "a" || states[2] != "c" {
		t.Fatalf("States = %v", states)
	}
}

func TestQTableSaveLoad(t *testing.T) {
	q := NewQTable(3, 0.25)
	q.Set("a", 0, 1.5)
	q.Set("b", 2, -2)
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadQTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(q, loaded) != 0 {
		t.Fatal("round trip changed values")
	}
	if loaded.Get("unseen", 0) != 0.25 {
		t.Fatal("initial value lost")
	}
}

// loadQTable decodes a saved table through QTableJSON.Table, the path
// policies and agent snapshots embed it by.
func loadQTable(r io.Reader) (*QTable, error) {
	var d QTableJSON
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, err
	}
	return d.Table()
}

func TestLoadQTableRejectsGarbage(t *testing.T) {
	if _, err := loadQTable(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage loaded")
	}
	if _, err := loadQTable(bytes.NewBufferString(`{"actions":0,"rows":{}}`)); err == nil {
		t.Fatal("zero actions loaded")
	}
	if _, err := loadQTable(bytes.NewBufferString(`{"actions":2,"rows":{"s":[1]}}`)); err == nil {
		t.Fatal("ragged row loaded")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewQTable(2, 0)
	b := NewQTable(2, 0)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("empty tables differ")
	}
	a.Set("s", 0, 3)
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Fatalf("diff = %v", got)
	}
	b.Set("t", 1, -4)
	if got := MaxAbsDiff(a, b); got != 4 {
		t.Fatalf("diff = %v", got)
	}
	c := NewQTable(3, 0)
	if !math.IsInf(MaxAbsDiff(a, c), 1) {
		t.Fatal("different action counts should be +Inf")
	}
}

// TestQTableServedChain pins the one read chain — materialized row, else the
// shared store, else the constant initial value — through every reader built
// on it: what each reads from each source, and which readers materialize a
// private row.
func TestQTableServedChain(t *testing.T) {
	const (
		state   = "s"
		initial = 0.5
	)
	var (
		own        = []float64{9, 8, 7}
		fromShared = []float64{1, 5, 2}
		constant   = []float64{initial, initial, initial}
	)
	newTable := func(shared *SharedRows) *QTable {
		q := NewQTable(3, initial)
		q.SetShared(shared)
		return q
	}
	store := func(row []float64) *SharedRows {
		return NewSharedRows(3, func(string) []float64 { return row })
	}
	sources := []struct {
		name  string
		build func() *QTable
		want  []float64
		// readRowCopies: ReadRow has to materialize, because the row is neither
		// the table's own nor served by a shared store.
		readRowCopies bool
	}{
		{"materialized", func() *QTable {
			q := newTable(store(fromShared))
			copy(q.Row(state), own)
			return q
		}, own, false},
		{"shared", func() *QTable { return newTable(store(fromShared)) }, fromShared, false},
		{"shared-declines", func() *QTable { return newTable(store(nil)) }, constant, true},
		{"shared-wrong-length", func() *QTable { return newTable(store([]float64{1})) }, constant, true},
		{"none", func() *QTable { return newTable(nil) }, constant, true},
	}
	type reader struct {
		name string
		read func(q *QTable) []float64
		// want is what the read returns when the table serves row.
		want func(row []float64) []float64
		// copies reports whether the read leaves a private row behind for a
		// source whose ReadRow would.
		copies func(readRowCopies bool) bool
	}
	whole := func(row []float64) []float64 { return row }
	never := func(bool) bool { return false }
	readers := []reader{
		{"Row", func(q *QTable) []float64 { return q.Row(state) }, whole, func(bool) bool { return true }},
		{"ReadRow", func(q *QTable) []float64 { return q.ReadRow(state) }, whole, func(c bool) bool { return c }},
		{"Get", func(q *QTable) []float64 {
			return []float64{q.Get(state, 0), q.Get(state, 1), q.Get(state, 2)}
		}, whole, never},
		{"Best", func(q *QTable) []float64 {
			a, v := q.Best(state)
			return []float64{float64(a), v}
		}, func(row []float64) []float64 {
			best := 0
			for a, v := range row {
				if v > row[best] {
					best = a
				}
			}
			return []float64{float64(best), row[best]}
		}, never},
		// The solver's binding, OwnRows: it materializes, as Row does.
		{"batch-read", func(q *QTable) []float64 {
			return q.OwnRows([]string{state})[0]
		}, whole, func(bool) bool { return true }},
	}
	for _, src := range sources {
		for _, rd := range readers {
			t.Run(src.name+"/"+rd.name, func(t *testing.T) {
				q := src.build()
				before := q.Len()
				if got, want := rd.read(q), rd.want(src.want); !slices.Equal(got, want) {
					t.Fatalf("read %v, want %v", got, want)
				}
				wantLen := before
				if before == 0 && rd.copies(src.readRowCopies) {
					wantLen = 1
				}
				if q.Len() != wantLen {
					t.Fatalf("%d materialized rows after the read, want %d", q.Len(), wantLen)
				}
				if q.Len() == 1 {
					// A materialized row is private: writing through it must
					// not reach the shared store, and its key is interned
					// where a store exists.
					q.Row(state)[0] = -1
					if fromShared[0] != 1 {
						t.Fatal("write through a materialized row reached its source")
					}
					if q.shared != nil {
						q.shared.mu.RLock()
						_, interned := q.shared.keys[state]
						q.shared.mu.RUnlock()
						if !interned {
							t.Error("materialized key not interned in the shared store")
						}
						if row := q.shared.row(state); len(row) > 0 && row[0] != 1 {
							t.Fatal("write through a materialized row reached the shared store")
						}
					}
				}
			})
		}
	}
}

// MaxAbsDiff returns the largest absolute per-entry difference between two
// tables over the union of their states. Tables with different action counts
// return +Inf. Only the tests compare tables this way.
func MaxAbsDiff(a, b *QTable) float64 {
	if a.actions != b.actions {
		return math.Inf(1)
	}
	var max float64
	seen := make(map[string]bool, len(a.rows))
	for k, row := range a.rows {
		seen[k] = true
		other, ok := b.rows[k]
		for i, v := range row {
			var ov float64 = b.initial
			if ok {
				ov = other[i]
			}
			if d := math.Abs(v - ov); d > max {
				max = d
			}
		}
	}
	for k, row := range b.rows {
		if seen[k] {
			continue
		}
		for _, v := range row {
			if d := math.Abs(v - a.initial); d > max {
				max = d
			}
		}
	}
	return max
}

// Len returns the number of materialized state rows.
func (q *QTable) Len() int { return len(q.rows) }

// Clone returns a deep copy of the table, sharing any shared row store.
func (q *QTable) Clone() *QTable {
	out := NewQTable(q.actions, q.initial)
	out.shared = q.shared
	out.rows = copyRows(q.rows, q.actions)
	return out
}

// States returns the materialized state keys in sorted order.
func (q *QTable) States() []string {
	keys := make([]string, 0, len(q.rows))
	for k := range q.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
