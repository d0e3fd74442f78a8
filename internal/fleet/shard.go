package fleet

import (
	"hash/fnv"
	"sync"

	"github.com/rac-project/rac/internal/telemetry"
)

// shardJob is one queued cross-shard operation (checkpoint, drain, policy
// override) waiting for the shard's scheduling gap.
type shardJob struct {
	op   func() error
	done chan error
}

// shard owns a deterministic subset of the fleet's tenants: names hash onto
// shards, and each shard advances its tenants sequentially in admission order
// while the shards themselves run concurrently on the worker pool. Admin
// operations targeting a tenant ride the owning shard's mailbox instead of a
// fleet-wide lock — an idle shard runs them inline, a mid-round shard drains
// them between tenant steps — so a checkpoint of one tenant never waits for
// the rest of the fleet.
type shard struct {
	id int

	// runMu is held while the shard advances tenants (a round) or runs a
	// mailbox job inline; it guarantees at most one goroutine touches a
	// tenant's agent at a time.
	runMu sync.Mutex

	mu      sync.Mutex
	tenants []*Tenant // shard admission order — the shard's iteration order
	mailbox []shardJob

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

// pendingOps reports the mailbox depth (admin API diagnostics).
func (s *shard) pendingOps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mailbox)
}

// do runs op under the shard's run lock: inline when the shard is idle,
// otherwise queued on the mailbox and executed by the current lock holder at
// its next scheduling gap (between tenant steps, or at round end). It returns
// op's error either way.
func (s *shard) do(op func() error) error {
	s.mu.Lock()
	if s.runMu.TryLock() {
		s.mu.Unlock()
		err := op()
		s.drainMailbox()
		s.runMu.Unlock()
		s.flush()
		return err
	}
	job := shardJob{op: op, done: make(chan error, 1)}
	s.mailbox = append(s.mailbox, job)
	s.mu.Unlock()
	return <-job.done
}

// drainMailbox runs every queued job. Callers must hold runMu.
func (s *shard) drainMailbox() {
	for {
		s.mu.Lock()
		if len(s.mailbox) == 0 {
			s.mu.Unlock()
			return
		}
		job := s.mailbox[0]
		s.mailbox = s.mailbox[1:]
		s.mu.Unlock()
		job.done <- job.op()
	}
}

// flush clears jobs that slipped into the mailbox after the caller's final
// pre-unlock drain: whoever holds runMu next is responsible for them, and if
// nobody does, flush takes the lock and drains itself. Every runMu holder
// calls flush after unlocking, so no job waits on an idle shard.
func (s *shard) flush() {
	for {
		s.mu.Lock()
		if len(s.mailbox) == 0 {
			s.mu.Unlock()
			return
		}
		if !s.runMu.TryLock() {
			// A new holder owns the lock; its drain/flush picks the jobs up.
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.drainMailbox()
		s.runMu.Unlock()
	}
}

// runRound advances every running tenant of the shard once, sequentially in
// shard admission order, draining the mailbox between steps so admin
// operations see bounded latency even mid-round. Post-step bookkeeping
// (capacity warm starts, due checkpoints, drain completion) also runs here,
// in the same deterministic order; the shard's errors are returned.
// Policy-store mutations discovered during bookkeeping are deferred to the
// fleet's round barrier (Fleet.applyPendingPolicies), so in-flight store
// reads on other shards never observe a mid-round add.
func (s *shard) runRound(f *Fleet) []error {
	var errs []error
	s.runMu.Lock()
	s.drainMailbox()
	tenants := s.snapshot()
	for _, t := range tenants {
		if t.State() == StateRunning {
			t.step(f.runCtx)
		}
		s.drainMailbox()
	}
	for _, t := range tenants {
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
		s.drainMailbox()
	}
	s.runMu.Unlock()
	s.flush()
	return errs
}
