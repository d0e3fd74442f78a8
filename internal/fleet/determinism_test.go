package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// stepRecord is one completed tenant step as the tenant's status reports it,
// plus the configuration the agent measured: what the determinism tests
// compare step by step.
type stepRecord struct {
	Interval   int
	Config     string
	LastRT     float64
	LastReward float64
	Violations int
	Policy     string
}

// runRecorded runs rounds of f one at a time and appends, per tenant name, a
// record for every tenant that completed a step in the round.
func runRecorded(t *testing.T, f *Fleet, rounds int, logs map[string][]stepRecord) {
	t.Helper()
	before := make(map[string]int)
	for i := 0; i < rounds; i++ {
		for _, tn := range f.Tenants() {
			before[tn.Name()] = tn.Interval()
		}
		if err := f.RunRound(); err != nil {
			t.Fatal(err)
		}
		for _, tn := range f.Tenants() {
			st := tn.Status()
			if st.Interval == before[st.Name] {
				continue
			}
			logs[st.Name] = append(logs[st.Name], stepRecord{
				Interval:   st.Interval,
				Config:     tn.Agent().Config().Key(),
				LastRT:     st.LastRT,
				LastReward: st.LastReward,
				Violations: st.Violations,
				Policy:     st.Policy,
			})
		}
	}
}

// runFleet executes a fresh 5-tenant fleet (one with elastic capacity) at
// the given worker count and returns each tenant's step records and final
// serialized agent state.
func runFleet(t *testing.T, procs, rounds int) (map[string][]stepRecord, map[string][]byte) {
	t.Helper()
	f, err := New(Options{Seed: 1234, Procs: procs, RegistryDir: t.TempDir(), TrainInit: fastTrain()})
	if err != nil {
		t.Fatal(err)
	}
	specs := []TenantSpec{
		{Name: "alpha", Backend: "analytic", Context: "context-1", NoiseSigma: 0.2, TrainPolicy: true},
		{Name: "beta", Backend: "analytic", Context: "context-2", NoiseSigma: 0.2, TrainPolicy: true},
		{Name: "gamma", Backend: "analytic", Context: "context-1", NoiseSigma: 0.1},
		{Name: "delta", Backend: "analytic", Context: "context-3", NoiseSigma: 0.3},
		{Name: "epsilon", Backend: "analytic", Context: "context-2", NoiseSigma: 0.2,
			Capacity: true, CapacityCost: 0.05},
	}
	for _, sp := range specs {
		if _, err := f.Admit(sp); err != nil {
			t.Fatal(err)
		}
	}
	logs := make(map[string][]stepRecord, len(specs))
	runRecorded(t, f, rounds, logs)
	states := make(map[string][]byte, len(specs))
	for _, sp := range specs {
		states[sp.Name] = exportAgent(t, f.Tenant(sp.Name))
	}
	return logs, states
}

// TestFleetDeterministicAcrossProcs is the fleet determinism regression: a
// 5-tenant fleet produces identical per-tenant step records and byte-identical
// final Q-tables whether rounds run on one worker or eight. Tenant streams
// are pre-split by name and rounds are barrier-synchronized, so scheduling
// interleaving must not be observable.
func TestFleetDeterministicAcrossProcs(t *testing.T) {
	const rounds = 15
	logs1, states1 := runFleet(t, 1, rounds)
	logs8, states8 := runFleet(t, 8, rounds)

	for name, log1 := range logs1 {
		log8 := logs8[name]
		if len(log1) != len(log8) {
			t.Fatalf("tenant %s: %d records at procs=1, %d at procs=8", name, len(log1), len(log8))
		}
		for i := range log1 {
			if log1[i] != log8[i] {
				t.Errorf("tenant %s step %d: procs=1 %+v, procs=8 %+v", name, i, log1[i], log8[i])
			}
		}
		if !bytes.Equal(states1[name], states8[name]) {
			t.Errorf("tenant %s: final agent state differs between procs=1 and procs=8", name)
		}
	}
}

// TestFleetStatesPinned pins the fleet's online path across revisions: the
// SHA-256 of the five tenants' final exported agent states after runFleet's
// 15 rounds at procs=1, concatenated in name order. It is the one check that
// reaches Agent.retrain over each tenant's own region values, seeded from a
// read-only shared policy — the policy and figure hashes `make identity`
// compares never do — so a change meant to move no output (a faster
// retraining solve, say) is held to that here. A change that moves the online
// path on purpose re-pins it once. amd64 only: other architectures fuse
// multiply-adds.
func TestFleetStatesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("agent states are pinned for amd64 floating point")
	}
	_, states := runFleet(t, 1, 15)
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write(states[name])
	}
	const want = "f35cc52cc3fdd5a519776ffda467d4d3cfad70183440bbb6f27c6b47ec66d0f0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("final agent states hash %s, pinned %s", got, want)
	}
}

// TestFleetStepRecordsPinned pins what runFleet's five tenants do over 15
// rounds at procs=1, not how their agents store it: the SHA-256 of every
// step record, printed with %+v (shortest round-tripping floats), tenant by
// tenant in name order. A change of the snapshot format leaves it alone; a
// change of what a tenant chooses, measures or learns moves it. amd64 only,
// as TestFleetStatesPinned.
func TestFleetStepRecordsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("step records are pinned for amd64 floating point")
	}
	logs, _ := runFleet(t, 1, 15)
	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		for _, rec := range logs[name] {
			fmt.Fprintf(h, "%s %+v\n", name, rec)
		}
	}
	const want = "82f32661bcc9bbf51fa779c2a106c4ed141065897747d9f5e419034bfdcdb096"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("%d tenants' step records hash %s, pinned %s", len(names), got, want)
	}
}
