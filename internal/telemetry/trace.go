package telemetry

import "sync"

// EventKind discriminates decision-trace entries.
type EventKind string

// The agent's event kinds (paper Algorithm 3): one "step" per tuning
// iteration, one "retrain" per batch training pass, and one "policy-switch"
// when the violation counter trips a context change.
const (
	KindStep         EventKind = "step"
	KindRetrain      EventKind = "retrain"
	KindPolicySwitch EventKind = "policy-switch"
)

// Resilience event kinds: "retry" when a transient Apply/Measure failure is
// retried, "rollback" when the SLA safety guard reverts to the last-known-good
// configuration, "invalid-measurement" when an interval is discarded instead
// of learned from, and "fault" when the fault-injection layer fires.
const (
	KindRetry    EventKind = "retry"
	KindRollback EventKind = "rollback"
	KindInvalid  EventKind = "invalid-measurement"
	KindFault    EventKind = "fault"
)

// Fleet event kinds: "lifecycle" when a tenant transitions between FSM states
// (starting/running/paused/draining/stopped), "checkpoint" when a tenant's
// state is snapshotted to or restored from disk.
const (
	KindLifecycle  EventKind = "lifecycle"
	KindCheckpoint EventKind = "checkpoint"
)

// Workload event kind: one "workload" event per measurement interval of a
// scenario-driven run, recording the interval's offered load (and phase in
// Detail) so rollbacks and policy switches in the same trace can be
// correlated with the load that provoked them.
const KindWorkload EventKind = "workload"

// Admission event kind: one "admission" event per epoch decision of the SLO
// gate's adaptive loop, recording the epoch's rejection rate (RejectRate),
// the latency shares behind the verdict (LateShare, SlowShare) and the
// regime it selected (Detail: "exploit", "spread" or "hold").
const KindAdmission EventKind = "admission"

// Capacity event kind: one "capacity" event per saturation verdict or scale
// decision of the elastic-capacity controller, recording the VM level in
// effect (Level) and the decision in Detail ("saturated: scale-up 2 -> 3",
// "hold: provisioning", …).
const KindCapacity EventKind = "capacity"

// Event is one structured decision-trace record. Fields are a union over the
// kinds; unused fields stay at their zero value and are omitted from JSON.
type Event struct {
	// Seq is a monotonically increasing sequence number assigned by the
	// trace, so consumers can detect drops after ring wraparound.
	Seq uint64 `json:"seq"`
	// Kind is the event type.
	Kind EventKind `json:"kind"`
	// Iteration is the agent iteration the event belongs to.
	Iteration int `json:"iteration,omitempty"`
	// State is the configuration state key measured this step.
	State string `json:"state,omitempty"`
	// Action describes the reconfiguration taken.
	Action string `json:"action,omitempty"`
	// MeanRT is the measured mean response time in paper seconds.
	MeanRT float64 `json:"mean_rt,omitempty"`
	// Reward is the immediate reward SLA − MeanRT.
	Reward float64 `json:"reward,omitempty"`
	// Epsilon is the exploration rate in force when the action was chosen.
	Epsilon float64 `json:"epsilon,omitempty"`
	// QDelta is the change of the state's best Q-value across this
	// iteration's batch retraining.
	QDelta float64 `json:"q_delta,omitempty"`
	// Violations is the consecutive-violation counter after the step.
	Violations int `json:"violations,omitempty"`
	// Policy names the active initial policy.
	Policy string `json:"policy,omitempty"`
	// Sweeps is the number of batch sweeps a retrain ran.
	Sweeps int `json:"sweeps,omitempty"`
	// Attempts is how many Apply/Measure tries a step needed (retry events
	// and steps that recovered from transient faults; 0 when untracked).
	Attempts int `json:"attempts,omitempty"`
	// Fault names the injected fault kind on "fault" events.
	Fault string `json:"fault,omitempty"`
	// OfferedRate is the interval's offered load on "workload" events
	// (req/s, or mean population for population-only scenarios).
	OfferedRate float64 `json:"offered_rate,omitempty"`
	// RejectRate is the closed epoch's rejection fraction on "admission"
	// events.
	RejectRate float64 `json:"reject_rate,omitempty"`
	// LateShare and SlowShare are, on "admission" events, the closed
	// epoch's shares of completions over the SLA and over the gate's
	// headroom cut-off: the latency signal behind the verdict.
	LateShare float64 `json:"late_share,omitempty"`
	SlowShare float64 `json:"slow_share,omitempty"`
	// Converged reports whether a retrain hit its θ threshold.
	Converged bool `json:"converged,omitempty"`
	// Tenant names the fleet tenant an event belongs to (fleet-managed runs
	// only; empty for single-agent runs).
	Tenant string `json:"tenant,omitempty"`
	// Level names the VM provisioning level in effect ("capacity" events, and
	// "step" events of capacity-tracking systems).
	Level string `json:"level,omitempty"`
	// Detail carries kind-specific context (e.g. "shop → order" on a
	// policy switch).
	Detail string `json:"detail,omitempty"`
}

// Trace is a fixed-capacity ring buffer of decision events. It keeps the
// most recent Cap events; Add is O(1) and never allocates after
// construction. Safe for concurrent use — but unlike the metric instruments
// it takes a mutex, so it belongs on the per-iteration agent path, not the
// per-request hot path.
type Trace struct {
	mu   sync.Mutex
	buf  []Event
	next int    // index the next event is written to
	seq  uint64 // total events ever added
}

// NewTrace returns a ring holding the most recent capacity events
// (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// Add appends an event, assigning and returning its sequence number.
func (t *Trace) Add(ev Event) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
	}
	t.next = (t.next + 1) % cap(t.buf)
	return ev.Seq
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns how many events were ever added (≥ Len after wraparound).
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Snapshot copies the buffered events, oldest first.
func (t *Trace) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}
