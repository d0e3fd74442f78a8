package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/telemetry"
)

// AgentStateVersion is the current AgentState schema version. Restore also
// reads version 1 and rejects any other instead of guessing at its fields.
const AgentStateVersion = 2

// AgentState is the complete learned and procedural state of an Agent,
// captured mid-run so a restarted process can resume the exact trajectory an
// uninterrupted run would have taken: the per-state sample table and the
// values the last retrain over it left, from which every Q row derives; the
// context-detection window and counters; the resilience bookkeeping
// (last-known-good configuration, SLA streak); and both RNG streams (action
// selection and retraining) mid-sequence.
//
// The active initial policy travels by name only — it seeds every entry no
// retrain sets, and policies themselves are persisted separately (policy
// registry, PolicyStore). RestoreState re-binds the name against the agent's
// store.
type AgentState struct {
	// Version is the schema version (AgentStateVersion).
	Version int `json:"version"`
	// Iteration is the number of completed steps.
	Iteration int `json:"iteration"`
	// Config is the agent's current configuration.
	Config []int `json:"config"`
	// Samples is the per-state response-time table feeding retraining, by
	// state key.
	Samples map[string]float64 `json:"samples,omitempty"`
	// Prev and Val are the values the last retrain's last sweep began and
	// ended with, one per state of the region (the samples and their
	// neighbours) in its sweep order, which the samples determine; Forward
	// says that sweep ran forward.
	Prev    []float64 `json:"prev,omitempty"`
	Val     []float64 `json:"val,omitempty"`
	Forward bool      `json:"forward,omitempty"`
	// Window holds the context-detection window samples, oldest first.
	Window []float64 `json:"window,omitempty"`
	// Violations is the consecutive-violation counter.
	Violations int `json:"violations,omitempty"`
	// PolicyName names the active initial policy ("" when uninitialized).
	PolicyName string `json:"policy,omitempty"`
	// LastGood is the last configuration that satisfied the SLA (nil: none).
	LastGood []int `json:"last_good,omitempty"`
	// LastRT is the last believable mean response time.
	LastRT float64 `json:"last_rt,omitempty"`
	// SLAStreak is the consecutive bad-interval count feeding rollback.
	SLAStreak int `json:"sla_streak,omitempty"`
	// AgentRNG and LearnerRNG are the two exploration streams mid-sequence.
	AgentRNG   uint64 `json:"agent_rng"`
	LearnerRNG uint64 `json:"learner_rng"`
	// QTable is a version-1 snapshot's every row, by state key (initial
	// value 0), in place of Prev, Val and Forward: RestoreState derives the
	// values from it, and ExportState never writes it.
	QTable *mdp.QTableJSON `json:"qtable,omitempty"`
}

// ExportState captures the agent's complete resumable state. The returned
// value shares no mutable storage with the agent, so it can be serialized
// after the agent keeps stepping. Exporting between steps (never mid-step)
// is the caller's responsibility — the fleet scheduler checkpoints at round
// barriers, and racagent snapshots after the in-flight interval finishes.
func (a *Agent) ExportState() (*AgentState, error) {
	st := &AgentState{
		Version:    AgentStateVersion,
		Iteration:  a.iteration,
		Config:     a.cur.Clone(),
		Window:     a.window.Values(),
		Violations: a.violations,
		LastRT:     a.lastRT,
		SLAStreak:  a.slaStreak,
		AgentRNG:   a.rng.State(),
		LearnerRNG: a.explore.State(),
	}
	if err := a.region.export(st); err != nil {
		return nil, err
	}
	if a.policy != nil {
		st.PolicyName = a.policy.Name()
	}
	if a.lastGood != nil {
		st.LastGood = a.lastGood.Clone()
	}
	return st, nil
}

// RestoreState rebuilds the agent from a snapshot taken by ExportState on an
// agent with the same configuration space and options. The snapshot's policy
// name is re-bound against the agent's construction-time policy and store; a
// name that resolves nowhere is an error rather than a silent cold start.
//
// After a successful restore the agent's future Step sequence is exactly the
// one the exporting agent would have produced — provided the system it tunes
// was restored too (system.Snapshottable) or is memoryless given its applied
// configuration, like the noise-free analytic model.
func (a *Agent) RestoreState(st *AgentState) error {
	if st == nil {
		return errors.New("core: nil agent state")
	}
	if st.Version != AgentStateVersion && st.Version != 1 {
		return fmt.Errorf("core: agent state version %d, want %d or 1", st.Version, AgentStateVersion)
	}
	cur := config.Config(st.Config)
	if err := a.space.Validate(cur); err != nil {
		return fmt.Errorf("core: restore config: %w", err)
	}
	var lastGood config.Config
	if st.LastGood != nil {
		lastGood = config.Config(st.LastGood)
		if err := a.space.Validate(lastGood); err != nil {
			return fmt.Errorf("core: restore last-good config: %w", err)
		}
	}
	if len(st.Window) > a.opts.Window {
		return fmt.Errorf("core: snapshot window has %d samples, agent window holds %d",
			len(st.Window), a.opts.Window)
	}

	// Re-bind the initial policy by name before rebuilding the region: it
	// seeds every entry no retrain sets.
	policy := a.policy
	switch {
	case st.PolicyName == "":
		policy = nil
	case policy != nil && policy.Name() == st.PolicyName:
		// The construction-time policy is the active one.
	case a.store != nil && a.store.ByName(st.PolicyName) != nil:
		policy = a.store.ByName(st.PolicyName)
	default:
		return fmt.Errorf("core: snapshot references unknown policy %q", st.PolicyName)
	}

	if (st.Version == 1) != (st.QTable != nil) {
		return fmt.Errorf("core: version %d snapshot, Q-table present: %t; version 1 holds rows, version 2 values", st.Version, st.QTable != nil)
	}
	r := newRegion(a.space, a.actions, policy, a.opts.SLASeconds, a.row)
	if err := r.restore(st); err != nil {
		return err
	}
	if len(r.rewards) == 0 {
		r = nil // an agent holds no region until it first learns
	}

	a.policy = policy
	a.region = r
	a.explore = sim.RestoreRNG(st.LearnerRNG)
	a.rng = sim.RestoreRNG(st.AgentRNG)
	a.iteration = st.Iteration
	a.cur = cur.Clone()
	a.window.Reset()
	for _, v := range st.Window {
		a.window.Add(v)
	}
	a.violations = st.Violations
	a.lastGood = nil
	if lastGood != nil {
		a.lastGood = lastGood.Clone()
	}
	a.lastRT = st.LastRT
	a.slaStreak = st.SLAStreak
	if a.tel != nil {
		a.tel.violations.Set(float64(a.violations))
	}
	return nil
}

// ForcePolicy makes p the active initial policy immediately, bypassing the
// violation-counter detection — the fleet admin API's manual override. The
// Q-table is re-seeded and the measurement window cleared, exactly as on a
// detected context change. A nil p clears the policy (cold Q-table).
func (a *Agent) ForcePolicy(p *Policy) {
	a.switchPolicy(p, telemetry.Event{Detail: "forced: "})
}

// switchPolicy makes p the initial policy, on a detected context change or a
// forced one: the Q-table is re-seeded and the samples, window and violation
// counter cleared, since they describe the old context. It counts the switch,
// zeroes the violations gauge and traces ev, completed with the switch's
// iteration, the new policy and "old -> new" appended to ev.Detail.
func (a *Agent) switchPolicy(p *Policy, ev telemetry.Event) {
	oldName, newName := "", ""
	if a.policy != nil {
		oldName = a.policy.Name()
	}
	if p != nil {
		newName = p.Name()
	}
	a.policy = p
	a.resetQ()
	a.window.Reset()
	a.violations = 0
	if a.tel != nil {
		a.tel.switches.Inc()
		a.tel.violations.Set(0)
	}
	if a.trace != nil {
		ev.Kind = telemetry.KindPolicySwitch
		ev.Iteration = a.iteration
		ev.Policy = newName
		ev.Detail += oldName + " -> " + newName
		a.trace.Add(ev)
	}
}

// Save writes st as JSON — the snapshot sibling of Policy.Save.
func (st *AgentState) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(st)
}

// LoadAgentState reads a snapshot previously written by AgentState.Save.
func LoadAgentState(r io.Reader) (*AgentState, error) {
	var st AgentState
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decode agent state: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("core: decode agent state: data after the document")
	}
	return &st, nil
}
