package core

import (
	"strconv"
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/config"
)

// TestPolicyStoreConcurrentPublish exercises the store's locking under
// `go test -race`: writers publish policies while readers match, list and
// look up by name, the access pattern of parallel per-context training
// feeding a store that agents are already consuming.
func TestPolicyStoreConcurrentPublish(t *testing.T) {
	space := config.Default()
	base := bowlPolicyForPersist(t, space)
	store := NewPolicyStore(base)
	cfg := space.DefaultConfig()

	const writers, readers, perWriter = 4, 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := *base
				p.name = "w" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				store.Add(&p)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if _, err := store.Match(cfg, 1.0); err != nil {
					t.Error(err)
					return
				}
				store.ByName("persist")
				if store.Len() > len(store.Policies()) {
					// Policies() snapshots after Len(); it can only grow.
					t.Error("snapshot shrank")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := store.Len(), 1+writers*perWriter; got != want {
		t.Fatalf("store has %d policies, want %d", got, want)
	}
	if store.ByName("w3-7") == nil {
		t.Fatal("published policy not visible")
	}
}

// Policies returns the stored policies.
func (s *PolicyStore) Policies() []*Policy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Policy, len(s.policies))
	copy(out, s.policies)
	return out
}
