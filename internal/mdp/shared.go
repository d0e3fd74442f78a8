package mdp

import "sync"

// SharedRows is a copy-on-write backing store for Q-tables that share an
// initialization: seeded rows are computed once here and served read-only to
// every table that installs it, and a table materializes a private row only
// when it writes. The agent no longer uses it (it holds its own rows and
// reads a policy's seeding directly); the benchmark ledger's row probes and
// the tests do.
//
// State-key strings are interned alongside the rows, so ten thousand tables
// keying the same visited states hold one copy of each key.
//
// All methods are safe for concurrent use; the seeder runs under the write
// lock, so it may touch shared policy state without its own synchronization.
// Seeded rows are immutable once published — callers must never write through
// a slice returned by row.
type SharedRows struct {
	actions int
	seeder  Seeder

	mu   sync.RWMutex
	rows map[string][]float64
	keys map[string]string
}

// NewSharedRows returns an empty shared store serving rows of the given
// action count from seeder. A nil seeder is allowed: the store then only
// interns keys and every lookup misses (tables fall back to their constant
// initial value).
func NewSharedRows(actions int, seeder Seeder) *SharedRows {
	if actions < 1 {
		panic("mdp: SharedRows needs at least one action")
	}
	return &SharedRows{
		actions: actions,
		seeder:  seeder,
		rows:    make(map[string][]float64),
		keys:    make(map[string]string),
	}
}

// Intern returns the canonical copy of state, so every table sharing the
// store keys its rows by the same string backing array.
func (s *SharedRows) Intern(state string) string {
	s.mu.RLock()
	k, ok := s.keys[state]
	s.mu.RUnlock()
	if ok {
		return k
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.internLocked(state)
}

func (s *SharedRows) internLocked(state string) string {
	if k, ok := s.keys[state]; ok {
		return k
	}
	s.keys[state] = state
	return state
}

// row returns the shared seeded row for state, computing and memoizing it on
// first access. States the seeder declines (nil or wrong length) memoize as
// nil so the seeder runs at most once per state. The returned slice is shared
// and must be treated as immutable.
func (s *SharedRows) row(state string) []float64 {
	s.mu.RLock()
	row, ok := s.rows[state]
	s.mu.RUnlock()
	if ok {
		return row
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if row, ok := s.rows[state]; ok {
		return row
	}
	var fresh []float64
	if s.seeder != nil {
		if seeded := s.seeder(state); len(seeded) == s.actions {
			fresh = make([]float64, s.actions)
			copy(fresh, seeded)
		}
	}
	state = s.internLocked(state)
	s.rows[state] = fresh
	return fresh
}
