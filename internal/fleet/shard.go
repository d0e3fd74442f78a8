package fleet

import (
	"hash/fnv"
	"sync"

	"github.com/rac-project/rac/internal/telemetry"
)

// shard owns a deterministic subset of the fleet's tenants: names hash onto
// shards, and each shard advances its tenants sequentially in admission order
// while the shards themselves run concurrently on the worker pool. Admin
// operations lock only the tenant they touch (Tenant.run), so a checkpoint of
// one tenant waits at most for that tenant's current step — never for the
// rest of its shard or the fleet.
type shard struct {
	id int

	mu      sync.Mutex
	tenants []*Tenant // shard admission order — the shard's iteration order

	// stepSeconds is the shard-aggregate step latency histogram serving
	// tenants past the fleet's per-tenant metric cardinality cap.
	stepSeconds *telemetry.Histogram
}

// shardOf maps a tenant name onto one of n shards. The hash depends only on
// the name, so a tenant's shard is stable under fleet growth at a fixed
// shard count.
func shardOf(name string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// add appends a tenant to the shard's admission order.
func (s *shard) add(t *Tenant) {
	s.mu.Lock()
	s.tenants = append(s.tenants, t)
	s.mu.Unlock()
}

// snapshot copies the shard's tenant list.
func (s *shard) snapshot() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Tenant, len(s.tenants))
	copy(out, s.tenants)
	return out
}

// runRound advances every running tenant of the shard once, sequentially in
// shard admission order, each under its own run lock so an admin operation
// on it lands between steps. Post-step bookkeeping (capacity warm starts,
// due checkpoints, drain completion) also runs here, in the same
// deterministic order; the shard's errors are returned. Policy-store
// mutations discovered during bookkeeping are deferred to the fleet's round
// barrier (Fleet.applyPendingPolicies), so in-flight store reads on other
// shards never observe a mid-round add.
func (s *shard) runRound(f *Fleet) []error {
	var errs []error
	tenants := s.snapshot()
	for _, t := range tenants {
		t.run.Lock()
		if t.State() == StateRunning {
			t.step(f.runCtx)
		}
		t.run.Unlock()
	}
	for _, t := range tenants {
		t.run.Lock()
		switch t.State() {
		case StateRunning:
			if err := f.capacityWarmStart(t); err != nil {
				errs = append(errs, err)
			}
			if f.ckpts != nil && t.checkpointDue(f.opts.CheckpointEvery) {
				if err := f.checkpoint(t, "periodic"); err != nil {
					errs = append(errs, err)
				}
			}
		case StateDraining:
			if f.ckpts != nil {
				if err := f.checkpoint(t, "final"); err != nil {
					errs = append(errs, err)
				}
			}
			f.transition(t, StateStopped, "drained")
		}
		t.run.Unlock()
	}
	return errs
}
