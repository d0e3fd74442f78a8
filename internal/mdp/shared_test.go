package mdp

import (
	"bytes"
	"testing"
)

// TestSharedRowsCopyOnWrite is the COW contract at the table layer: two
// Q-tables bound to one SharedRows read identical seeded rows, a write
// through one table's materialized row never shows through the other, and
// the shared storage itself stays pristine.
func TestSharedRowsCopyOnWrite(t *testing.T) {
	seeder := func(state string) []float64 {
		if state == "declined" {
			return nil
		}
		return []float64{1, 2, 3}
	}
	shared := NewSharedRows(3, seeder)
	q1 := NewQTable(3, 0)
	q1.SetShared(shared)
	q2 := NewQTable(3, 0)
	q2.SetShared(shared)

	// Both tables read the seeded row without materializing.
	r1 := q1.ReadRow("s0")
	r2 := q2.ReadRow("s0")
	if r1[0] != 1 || r2[2] != 3 {
		t.Fatalf("seeded reads: %v, %v", r1, r2)
	}

	// Mutating q1's materialized copy must not leak into q2 or the shared row.
	row := q1.Row("s0")
	row[0] = 99
	if got := q2.ReadRow("s0"); got[0] != 1 {
		t.Errorf("q1 write leaked into q2: %v", got)
	}
	if got := shared.row("s0"); got[0] != 1 {
		t.Errorf("q1 write leaked into shared storage: %v", got)
	}
	if got := q1.ReadRow("s0"); got[0] != 99 {
		t.Errorf("q1 lost its own write: %v", got)
	}

	// Get/Best see the shared row for unmaterialized states.
	if v := q2.Get("s0", 2); v != 3 {
		t.Errorf("Get through shared = %v, want 3", v)
	}
	if a, v := q2.Best("s0"); a != 2 || v != 3 {
		t.Errorf("Best through shared = (%d, %v), want (2, 3)", a, v)
	}

	// Declined states fall back to zero rows on both paths.
	if v := q2.Get("declined", 0); v != 0 {
		t.Errorf("declined state Get = %v", v)
	}

	// Serialization stays delta-only: q2 never materialized, so its saved
	// table carries no rows, while q1 carries exactly its one write.
	var b1, b2 bytes.Buffer
	if err := q1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := q2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if len(b2.Bytes()) >= len(b1.Bytes()) {
		t.Errorf("empty-delta table serialized to %d bytes, learner table %d", b2.Len(), b1.Len())
	}

	// Interning: the same state key is computed once and memoized.
	if n := shared.Len(); n != 2 {
		t.Errorf("shared memoized %d rows, want 2 (s0 + declined)", n)
	}
}

// TestSharedRowsActionMismatch pins the wiring guards.
func TestSharedRowsActionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetShared with mismatched actions did not panic")
		}
	}()
	q := NewQTable(2, 0)
	q.SetShared(NewSharedRows(3, func(string) []float64 { return []float64{1, 2, 3} }))
}

// Len returns the number of memoized seeded rows (including negative entries
// for states the seeder declined).
func (s *SharedRows) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}
