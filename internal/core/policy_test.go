package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
)

func TestGroupDefs(t *testing.T) {
	space := config.Default()
	defs, err := groupDefs(space)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 4 {
		t.Fatalf("got %d groups", len(defs))
	}
	for _, d := range defs {
		if d.max < d.min || d.step <= 0 {
			t.Fatalf("group %s lattice [%d,%d] step %d", d.group, d.min, d.max, d.step)
		}
		if (d.max-d.min)%d.step != 0 {
			t.Fatalf("group %s lattice not aligned", d.group)
		}
		if len(d.members) == 0 {
			t.Fatalf("group %s has no members", d.group)
		}
	}
	// Capacity group intersects MaxClients and MaxThreads: [50,600] step 50.
	cap := defs[0]
	if cap.group != config.GroupCapacity || cap.min != 50 || cap.max != 600 || cap.step != 50 {
		t.Fatalf("capacity lattice %+v", cap)
	}
	// Timeout group intersects [1,21] at step 2.
	to := defs[1]
	if to.group != config.GroupTimeout || to.min != 1 || to.max != 21 || to.step != 2 {
		t.Fatalf("timeout lattice %+v", to)
	}
}

func TestGroupDefClamp(t *testing.T) {
	d := groupDef{min: 50, max: 600, step: 50}
	tests := []struct{ in, want int }{
		{0, 50}, {50, 50}, {74, 50}, {76, 100}, {600, 600}, {999, 600},
	}
	for _, tt := range tests {
		if got := d.clamp(tt.in); got != tt.want {
			t.Errorf("clamp(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestGroupModelEnumeration(t *testing.T) {
	space := config.Default()
	defs, err := groupDefs(space)
	if err != nil {
		t.Fatal(err)
	}
	st, rewards, err := newGroupLattice(defs).trainingMDP(func(vals []int) float64 { return 1 }, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for _, d := range defs {
		want *= d.levels()
	}
	if len(st.States()) != want || len(rewards) != want {
		t.Fatalf("enumerated %d states and %d rewards, want %d", len(st.States()), len(rewards), want)
	}
	if st.Actions() != 2*len(defs)+1 {
		t.Fatalf("actions = %d", st.Actions())
	}
}

func TestGroupModelTransitions(t *testing.T) {
	space := config.Default()
	defs, _ := groupDefs(space)
	st, rewards, err := newGroupLattice(defs).trainingMDP(func(vals []int) float64 { return 0 }, 2)
	if err != nil {
		t.Fatal(err)
	}

	const start = 0 // all-minimum state
	// Keep stays.
	if next := st.Next(start, 0); next != start {
		t.Fatal("keep moved")
	}
	// Increase group 0 moves one step.
	next := st.Next(start, 1)
	if next < 0 {
		t.Fatal("increase infeasible at minimum")
	}
	vals, err := parseGroupKey(st.States()[next], len(defs))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != defs[0].min+defs[0].step {
		t.Fatalf("increase moved to %d", vals[0])
	}
	for gi := 1; gi < len(defs); gi++ {
		if vals[gi] != defs[gi].min {
			t.Fatalf("increasing group 0 moved group %d to %d", gi, vals[gi])
		}
	}
	// Decrease group 0 at minimum is infeasible.
	if st.Next(start, 2) >= 0 {
		t.Fatal("decrease below minimum allowed")
	}
	// Rewards reflect the predictor: SLA − rt.
	if got := rewards[start]; got != 2 {
		t.Fatalf("reward %v, want 2", got)
	}
}

func TestLearnPolicyAndSeeder(t *testing.T) {
	space := config.Default()
	// Synthetic surface: quadratic bowl in the group means with minimum at
	// capacity 300, timeout 11, minspare 45, maxspare 55.
	targets := []float64{300, 11, 45, 55}
	sampler := func(cfg config.Config) (float64, error) {
		vec := config.GroupVector(space, cfg)
		rt := 0.2
		for i, v := range vec {
			d := (v - targets[i]) / 100
			rt += d * d
		}
		return rt, nil
	}
	p, err := LearnPolicy("test-ctx", space, sampler, InitOptions{CoarseLevels: 4, Seed: 3, Batch: mdp.DefaultBatchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "test-ctx" {
		t.Fatalf("name %q", p.Name())
	}
	// The offline pass reports how it converged.
	if tr, bound := p.Training(), mdp.DefaultBatchConfig().MaxSweeps; tr.Sweeps < 1 || tr.Sweeps > bound || tr.FinalErr <= 0 {
		t.Fatalf("offline training result %+v not populated (sweep bound %d)", tr, bound)
	}

	// The regression surface must recover the bowl's ordering.
	nearOpt, _ := config.GroupedConfig(space, map[config.Group]int{
		config.GroupCapacity: 300, config.GroupTimeout: 11,
		config.GroupMinSpare: 45, config.GroupMaxSpare: 55,
	})
	far, _ := config.GroupedConfig(space, map[config.Group]int{
		config.GroupCapacity: 600, config.GroupTimeout: 21,
		config.GroupMinSpare: 85, config.GroupMaxSpare: 95,
	})
	if p.PredictRT(nearOpt) >= p.PredictRT(far) {
		t.Fatalf("predictor inverted: near %v, far %v", p.PredictRT(nearOpt), p.PredictRT(far))
	}

	// The seeder produces full-width rows steering toward the optimum.
	seeder := p.Seeder()
	row := seeder(far.Key())
	if len(row) != 2*space.Len()+1 {
		t.Fatalf("seed row has %d actions", len(row))
	}
	// From the all-max corner, decreasing MaxClients (toward 300) must beat
	// increasing... increasing is infeasible at the edge but still seeded;
	// compare decrease vs keep instead.
	idx, _ := space.Lookup(config.MaxClients)
	if row[2+2*idx] <= row[0] {
		t.Fatalf("decrease (%v) not preferred over keep (%v) at the far corner",
			row[2+2*idx], row[0])
	}
	// Garbage states yield nil seeds.
	if seeder("not-a-key") != nil {
		t.Fatal("garbage state seeded")
	}
}

func TestLearnPolicyValidation(t *testing.T) {
	space := config.Default()
	ok := func(config.Config) (float64, error) { return 1, nil }
	if _, err := LearnPolicy("x", nil, ok, InitOptions{}); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := LearnPolicy("x", space, nil, InitOptions{}); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if _, err := LearnPolicy("x", space, ok, InitOptions{CoarseLevels: 1}); err == nil {
		t.Fatal("one coarse level accepted")
	}
	if _, err := LearnPolicy("x", space, ok, InitOptions{SLASeconds: -1}); err == nil {
		t.Fatal("negative SLA accepted")
	}
}

func TestPolicyPredictRTFloor(t *testing.T) {
	space := config.Default()
	// A wildly sloped surface would extrapolate negative; the floor guards.
	sampler := func(cfg config.Config) (float64, error) {
		vec := config.GroupVector(space, cfg)
		return math.Max(0.05, 5-vec[0]/100), nil
	}
	p, err := LearnPolicy("floor", space, sampler, InitOptions{CoarseLevels: 3, Seed: 1, Batch: mdp.DefaultBatchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, corner := range []map[config.Group]int{
		{config.GroupCapacity: 600, config.GroupTimeout: 21, config.GroupMinSpare: 85, config.GroupMaxSpare: 95},
		{config.GroupCapacity: 50, config.GroupTimeout: 1, config.GroupMinSpare: 5, config.GroupMaxSpare: 15},
	} {
		cfg, _ := config.GroupedConfig(space, corner)
		if p.PredictRT(cfg) <= 0 {
			t.Fatalf("non-positive prediction at %v", corner)
		}
	}
}

func TestParseGroupKeyErrors(t *testing.T) {
	if _, err := parseGroupKey("1,2", 3); err == nil {
		t.Fatal("wrong arity parsed")
	}
	if _, err := parseGroupKey("1,x,3", 3); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	space := config.Default()
	p := bowlPolicyForPersist(t, space)

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(bytes.NewReader(buf.Bytes()), space)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != p.Name() || loaded.SLA() != p.SLA() {
		t.Fatalf("metadata changed: %q/%v", loaded.Name(), loaded.SLA())
	}
	if p.Training().Sweeps == 0 || loaded.Training() != (mdp.BatchResult{}) {
		t.Fatalf("training result: trained %+v, loaded %+v; it is not persisted", p.Training(), loaded.Training())
	}
	// Predictions and seeds must survive the round trip exactly.
	probe := space.DefaultConfig()
	if got, want := loaded.PredictRT(probe), p.PredictRT(probe); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PredictRT changed: %v vs %v", got, want)
	}
	s1 := p.Seeder()(probe.Key())
	s2 := loaded.Seeder()(probe.Key())
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-12 {
			t.Fatalf("seed row changed at %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func bowlPolicyForPersist(t *testing.T, space *config.Space) *Policy {
	t.Helper()
	sampler := func(cfg config.Config) (float64, error) {
		vec := config.GroupVector(space, cfg)
		rt := 0.3
		for i, v := range vec {
			d := (v - []float64{300, 11, 45, 55}[i]) / 120
			rt += d * d
		}
		return rt, nil
	}
	p, err := LearnPolicy("persist", space, sampler, InitOptions{CoarseLevels: 3, Seed: 9, Batch: mdp.DefaultBatchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadPolicyRejectsGarbage(t *testing.T) {
	space := config.Default()
	if _, err := LoadPolicy(bytes.NewBufferString("not json"), space); err == nil {
		t.Fatal("garbage loaded")
	}
	if _, err := LoadPolicy(bytes.NewBufferString(`{"name":"x","slaSeconds":2,"groups":[]}`), space); err == nil {
		t.Fatal("group mismatch loaded")
	}
	if _, err := LoadPolicy(bytes.NewBufferString("{}"), nil); err == nil {
		t.Fatal("nil space accepted")
	}

	// A Q-table that is not exactly the group lattice's rows: truncated (a row
	// Seeder would silently read as zeros) or foreign (a row nothing reads).
	var saved bytes.Buffer
	if err := bowlPolicyForPersist(t, space).Save(&saved); err != nil {
		t.Fatal(err)
	}
	reencode := func(mutate func(rows map[string]json.RawMessage)) *bytes.Reader {
		t.Helper()
		var doc, qtable, rows map[string]json.RawMessage
		unmarshal := func(from json.RawMessage, into *map[string]json.RawMessage) {
			if err := json.Unmarshal(from, into); err != nil {
				t.Fatal(err)
			}
		}
		unmarshal(saved.Bytes(), &doc)
		unmarshal(doc["qtable"], &qtable)
		unmarshal(qtable["rows"], &rows)
		mutate(rows)
		var err error
		if qtable["rows"], err = json.Marshal(rows); err != nil {
			t.Fatal(err)
		}
		if doc["qtable"], err = json.Marshal(qtable); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(out)
	}
	defs, err := groupDefs(space)
	if err != nil {
		t.Fatal(err)
	}
	onLattice := newGroupLattice(defs).keys[0]
	if _, err := LoadPolicy(reencode(func(rows map[string]json.RawMessage) {
		if _, ok := rows[onLattice]; !ok {
			t.Fatalf("saved Q-table has no row %q", onLattice)
		}
	}), space); err != nil {
		t.Fatalf("re-encoded policy rejected: %v", err)
	}
	if _, err := LoadPolicy(reencode(func(rows map[string]json.RawMessage) {
		delete(rows, onLattice)
	}), space); err == nil {
		t.Fatal("Q-table missing a lattice row loaded")
	}
	if _, err := LoadPolicy(reencode(func(rows map[string]json.RawMessage) {
		rows["off-lattice"] = rows[onLattice]
	}), space); err == nil {
		t.Fatal("Q-table with a row off the lattice loaded")
	}
	if _, err := LoadPolicy(reencode(func(rows map[string]json.RawMessage) {
		rows["off-lattice"] = rows[onLattice]
		delete(rows, onLattice)
	}), space); err == nil {
		t.Fatal("Q-table with a lattice row swapped for a foreign one loaded")
	}
}
