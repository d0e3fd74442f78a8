package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/regression"
	"github.com/rac-project/rac/internal/sim"
)

// mustGrouping returns the space's grouping; the test spaces all have one.
func mustGrouping(tb testing.TB, space *config.Space) *config.Grouping {
	tb.Helper()
	groups, err := space.Grouping()
	if err != nil {
		tb.Fatal(err)
	}
	return groups
}

// flatPolicy is an untrained policy over the space whose regression surface
// predicts 1 s everywhere, against a 2 s SLA: enough to build the offline
// training MDP and to resolve group states.
func flatPolicy(tb testing.TB, space *config.Space) *Policy {
	tb.Helper()
	groups := mustGrouping(tb, space)
	dim := groups.Space().Len()
	quad, err := regression.QuadraticFromCoeffs(dim, make([]float64, 1+dim+dim*(dim+1)/2))
	if err != nil {
		tb.Fatal(err)
	}
	lattice, err := groupLattice(groups.Space())
	if err != nil {
		tb.Fatal(err)
	}
	return &Policy{space: space, groups: groups, lattice: lattice, quad: quad, sla: 2}
}

func TestGroupDefs(t *testing.T) {
	defs := mustGrouping(t, config.Default()).Space().Defs()
	if len(defs) != 4 {
		t.Fatalf("got %d groups", len(defs))
	}
	// Capacity group intersects MaxClients and MaxThreads: [50,600] step 50.
	cap := defs[0]
	if cap.Group != config.GroupCapacity || cap.Min != 50 || cap.Max != 600 || cap.Step != 50 {
		t.Fatalf("capacity lattice %+v", cap)
	}
	// Timeout group intersects [1,21] at step 2.
	to := defs[1]
	if to.Group != config.GroupTimeout || to.Min != 1 || to.Max != 21 || to.Step != 2 {
		t.Fatalf("timeout lattice %+v", to)
	}
}

// TestGroupDefClamp: a configuration off the lattice resolves to the nearest
// group state, clamped to the group lattice's ends.
func TestGroupDefClamp(t *testing.T) {
	space := config.Default()
	p := flatPolicy(t, space)
	tests := []struct{ in, want int }{
		{0, 50}, {50, 50}, {74, 50}, {76, 100}, {600, 600}, {999, 600},
	}
	for _, tt := range tests {
		cfg := space.DefaultConfig().With(space, config.MaxClients, tt.in).With(space, config.MaxThreads, tt.in)
		got, err := config.ParseKey(p.lattice.States()[p.groups.Ordinal(cfg)])
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tt.want {
			t.Errorf("capacity members at %d resolve to group value %d, want %d", tt.in, got[0], tt.want)
		}
	}
}

func TestGroupModelEnumeration(t *testing.T) {
	p := flatPolicy(t, config.Default())
	st, rewards := p.trainingMDP(parallel.Options{Procs: 1})
	want := p.groups.Space().States()
	if len(st.States()) != want || len(rewards) != want {
		t.Fatalf("enumerated %d states and %d rewards, want %d", len(st.States()), len(rewards), want)
	}
	if st.Actions() != 2*p.groups.Space().Len()+1 {
		t.Fatalf("actions = %d", st.Actions())
	}
}

// TestGroupLatticeShared: the offline MDP is built once per lattice shape —
// policies trained over two separately constructed default spaces, and one
// loaded back from disk, read the same structure — and a different shape gets
// its own.
func TestGroupLatticeShared(t *testing.T) {
	flat := func(cfg config.Config) (float64, error) { return 1, nil }
	batch := mdp.DefaultBatchConfig()
	batch.MaxSweeps = 1
	var trained []*Policy
	for _, space := range []*config.Space{config.Default(), config.Default()} {
		p, err := learnPolicy("shared", space, flat, InitOptions{CoarseLevels: 3, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		trained = append(trained, p)
	}
	var saved bytes.Buffer
	if err := trained[0].Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(&saved, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if trained[0].lattice != trained[1].lattice || loaded.lattice != trained[0].lattice {
		t.Fatal("policies over equal group lattices built separate training MDPs")
	}
	if other := flatPolicy(t, config.WithCapacity()); other.lattice == trained[0].lattice {
		t.Fatal("a different group lattice shares the default one's training MDP")
	}

	// First use from many goroutines at once, on a shape no other test builds:
	// one structure, built once.
	odd := []config.Def{
		{Param: config.MaxClients, Name: "a", Group: config.GroupCapacity, Min: 7, Max: 70, Step: 7, Default: 7},
		{Param: config.KeepAliveTimeout, Name: "b", Group: config.GroupTimeout, Min: 3, Max: 33, Step: 3, Default: 3},
	}
	got := make([]*sharedLattice, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			groups, err := config.MustSpace(odd).Grouping()
			if err == nil {
				got[i], err = groupLattice(groups.Space())
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for _, st := range got[1:] {
		if st != got[0] {
			t.Fatal("concurrent first uses of one lattice shape built separate structures")
		}
	}
}

func TestGroupModelTransitions(t *testing.T) {
	p := flatPolicy(t, config.Default())
	defs := p.groups.Space().Defs()
	st, rewards := p.trainingMDP(parallel.Options{Procs: 1})

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
	vals, err := config.ParseKey(st.States()[next])
	if err != nil || len(vals) != len(defs) {
		t.Fatalf("state key %q: %v", st.States()[next], err)
	}
	if vals[0] != defs[0].Min+defs[0].Step {
		t.Fatalf("increase moved to %d", vals[0])
	}
	for gi := 1; gi < len(defs); gi++ {
		if vals[gi] != defs[gi].Min {
			t.Fatalf("increasing group 0 moved group %d to %d", gi, vals[gi])
		}
	}
	// Decrease group 0 at minimum is infeasible.
	if st.Next(start, 2) >= 0 {
		t.Fatal("decrease below minimum allowed")
	}
	// Rewards reflect the predictor: SLA − rt.
	if got := rewards[start]; got != 1 {
		t.Fatalf("reward %v, want 1", got)
	}
}

func TestLearnPolicyAndSeeder(t *testing.T) {
	space := config.Default()
	// Synthetic surface: quadratic bowl in the group means with minimum at
	// capacity 300, timeout 11, minspare 45, maxspare 55.
	targets := []float64{300, 11, 45, 55}
	sampler := func(cfg config.Config) (float64, error) {
		vec := mustGrouping(t, space).AppendMeans(nil, cfg)
		rt := 0.2
		for i, v := range vec {
			d := (v - targets[i]) / 100
			rt += d * d
		}
		return rt, nil
	}
	p, err := learnPolicy("test-ctx", space, sampler, InitOptions{CoarseLevels: 4, Seed: 3, Batch: mdp.DefaultBatchConfig()})
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
	nearOpt, _ := mustGrouping(t, space).Expand(config.Config{300, 11, 45, 55})
	far, _ := mustGrouping(t, space).Expand(config.Config{600, 21, 85, 95})
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
	if _, err := learnPolicy("x", nil, ok, InitOptions{}); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := learnPolicy("x", space, nil, InitOptions{}); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if _, err := learnPolicy("x", space, ok, InitOptions{CoarseLevels: 1}); err == nil {
		t.Fatal("one coarse level accepted")
	}
	if _, err := learnPolicy("x", space, ok, InitOptions{SLASeconds: -1}); err == nil {
		t.Fatal("negative SLA accepted")
	}
	// Only the zero schedule means "default"; a set one keeps its values and
	// must bound the sweeps.
	if _, err := learnPolicy("x", space, ok, InitOptions{CoarseLevels: 2, Batch: mdp.BatchConfig{}}); err != nil {
		t.Fatalf("zero offline schedule rejected: %v", err)
	}
	noSweeps := DefaultOfflineBatch()
	noSweeps.MaxSweeps = 0
	if _, err := learnPolicy("x", space, ok, InitOptions{Batch: noSweeps}); err == nil {
		t.Fatal("offline schedule with MaxSweeps 0 accepted")
	}
}

func TestPolicyPredictRTFloor(t *testing.T) {
	space := config.Default()
	// A wildly sloped surface would extrapolate negative; the floor guards.
	sampler := func(cfg config.Config) (float64, error) {
		vec := mustGrouping(t, space).AppendMeans(nil, cfg)
		return math.Max(0.05, 5-vec[0]/100), nil
	}
	p, err := learnPolicy("floor", space, sampler, InitOptions{CoarseLevels: 3, Seed: 1, Batch: mdp.DefaultBatchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, corner := range []config.Config{{600, 21, 85, 95}, {50, 1, 5, 15}} {
		cfg, _ := mustGrouping(t, space).Expand(corner)
		if p.PredictRT(cfg) <= 0 {
			t.Fatalf("non-positive prediction at %v", corner)
		}
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
		vec := mustGrouping(t, space).AppendMeans(nil, cfg)
		rt := 0.3
		for i, v := range vec {
			d := (v - []float64{300, 11, 45, 55}[i]) / 120
			rt += d * d
		}
		return rt, nil
	}
	p, err := learnPolicy("persist", space, sampler, InitOptions{CoarseLevels: 3, Seed: 9, Batch: mdp.DefaultBatchConfig()})
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
		return bytes.NewReader(reencodeQTable(t, saved.Bytes(), func(_, rows map[string]json.RawMessage) { mutate(rows) }))
	}
	onLattice := flatPolicy(t, space).lattice.States()[0]
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
	if _, err := LoadPolicy(reencode(func(rows map[string]json.RawMessage) {
		rows[onLattice] = json.RawMessage("[1,2,3,4,5,6,7,8]")
	}), space); err == nil {
		t.Fatal("Q-table with a row of 8 actions loaded")
	}
	if _, err := LoadPolicy(bytes.NewReader(reencodeQTable(t, saved.Bytes(), func(qtable, _ map[string]json.RawMessage) {
		qtable["actions"] = json.RawMessage("0")
	})), space); err == nil {
		t.Fatal("Q-table of 0 actions loaded")
	}

	// Groups whose members name other parameters than the space's grouping:
	// the Q-table's action columns would seed the wrong parameters.
	var doc map[string]json.RawMessage
	var groups []map[string]json.RawMessage
	if err := json.Unmarshal(saved.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["groups"], &groups); err != nil {
		t.Fatal(err)
	}
	groups[0]["members"], groups[1]["members"] = groups[1]["members"], groups[0]["members"]
	var err error
	if doc["groups"], err = json.Marshal(groups); err != nil {
		t.Fatal(err)
	}
	swapped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPolicy(bytes.NewReader(swapped), space); err == nil {
		t.Fatal("policy whose groups 0 and 1 swapped members loaded")
	}
}

// reencodeQTable decodes a saved policy down to its Q-table's fields and rows,
// lets mutate edit them, and encodes the document again.
func reencodeQTable(tb testing.TB, saved []byte, mutate func(qtable, rows map[string]json.RawMessage)) []byte {
	tb.Helper()
	var doc, qtable, rows map[string]json.RawMessage
	unmarshal := func(from json.RawMessage, into *map[string]json.RawMessage) {
		if err := json.Unmarshal(from, into); err != nil {
			tb.Fatal(err)
		}
	}
	unmarshal(saved, &doc)
	unmarshal(doc["qtable"], &qtable)
	unmarshal(qtable["rows"], &rows)
	mutate(qtable, rows)
	var err error
	if qtable["rows"], err = json.Marshal(rows); err != nil {
		tb.Fatal(err)
	}
	if doc["qtable"], err = json.Marshal(qtable); err != nil {
		tb.Fatal(err)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// fuzzSpace is a four-parameter, two-group space whose coarse-2 policy
// saves to a document of a few kilobytes, small enough for the fuzzer to
// mutate hundreds of times a second.
func fuzzSpace() *config.Space {
	return config.MustSpace([]config.Def{
		{Param: config.MaxClients, Name: "a", Group: config.GroupCapacity, Min: 50, Max: 250, Step: 50, Default: 150},
		{Param: config.MaxThreads, Name: "b", Group: config.GroupCapacity, Min: 50, Max: 250, Step: 50, Default: 150},
		{Param: config.KeepAliveTimeout, Name: "c", Group: config.GroupTimeout, Min: 1, Max: 21, Step: 5, Default: 6},
		{Param: config.SessionTimeout, Name: "d", Group: config.GroupTimeout, Min: 1, Max: 21, Step: 5, Default: 6},
	})
}

// trainFlat trains a coarse-2 policy over a flat surface in two sweeps and
// returns it with its Save bytes.
func trainFlat(tb testing.TB, space *config.Space) (*Policy, []byte) {
	tb.Helper()
	flat := func(config.Config) (float64, error) { return 1, nil }
	batch := mdp.DefaultBatchConfig()
	batch.MaxSweeps = 2
	p, err := learnPolicy("fuzz", space, flat, InitOptions{CoarseLevels: 2, Batch: batch})
	if err != nil {
		tb.Fatal(err)
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		tb.Fatal(err)
	}
	return p, saved.Bytes()
}

// checkLoadRoundTrip holds a policy LoadPolicy accepted to saving its
// encoding/json reference bytes, which load again and save identically. It
// reports whether data loaded.
func checkLoadRoundTrip(t *testing.T, data []byte, space *config.Space) bool {
	t.Helper()
	p, err := LoadPolicy(bytes.NewReader(data), space)
	if err != nil {
		return false
	}
	first := checkSaveMatchesReference(t, p)
	again, err := LoadPolicy(bytes.NewReader(first), space)
	if err != nil {
		t.Fatalf("saved policy does not load: %v", err)
	}
	var second bytes.Buffer
	if err := again.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Fatal("a loaded policy saves differently after one more load")
	}
	return true
}

func TestLoadPolicyRejectsTrailingData(t *testing.T) {
	space := fuzzSpace()
	_, saved := trainFlat(t, space)
	if _, err := LoadPolicy(bytes.NewReader(append(slices.Clone(saved), "\n "...)), space); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{" junk", string(saved)} {
		if _, err := LoadPolicy(bytes.NewReader(append(slices.Clone(saved), tail...)), space); err == nil {
			t.Errorf("policy followed by %.20q loaded", tail)
		}
	}
}

// TestLoadDefaultSpacePolicy is FuzzLoadPolicy's property on one full
// default-space document, too large to be worth mutating.
func TestLoadDefaultSpacePolicy(t *testing.T) {
	space := config.Default()
	_, saved := trainFlat(t, space)
	if !checkLoadRoundTrip(t, saved, space) {
		t.Fatal("a saved default-space policy does not load")
	}
}

// FuzzLoadPolicy holds LoadPolicy, which reads files from outside the program,
// to two properties: it never panics, and a policy it accepts saves to bytes
// that load again and save identically. The seeds are a coarse-2 policy's
// Save bytes over fuzzSpace, five damaged copies and a document without a
// Q-table; they run under plain go test.
func FuzzLoadPolicy(f *testing.F) {
	space := fuzzSpace()
	p, saved := trainFlat(f, space)
	key := p.lattice.States()[0]
	f.Add(saved)
	for _, mutate := range []func(qtable, rows map[string]json.RawMessage){
		func(_, rows map[string]json.RawMessage) { delete(rows, key) },
		func(_, rows map[string]json.RawMessage) { rows["off-lattice"] = rows[key] },
		func(_, rows map[string]json.RawMessage) { rows[key] = json.RawMessage("[1,2,3,4,5,6,7,8]") },
		func(qtable, _ map[string]json.RawMessage) { qtable["actions"] = json.RawMessage("0") },
	} {
		f.Add(reencodeQTable(f, saved, mutate))
	}
	f.Add(saved[:len(saved)/2])
	f.Add(append(slices.Clone(saved), " junk"...))
	f.Add([]byte(`{"name":"x","slaSeconds":2,"groups":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoadRoundTrip(t, data, space)
	})
}

// The group lattice as internal/core derived it before config.Grouping
// existed, kept as the test oracle: its own range intersection, its own
// mixed-radix strides and key rendering, its own hand-rolled transition loop.
// It is the definition of the group states, their order and their MDP.
type refGroupDef struct {
	group          config.Group
	members        []int
	min, max, step int
}

func (g refGroupDef) levels() int { return (g.max-g.min)/g.step + 1 }

func (g refGroupDef) clamp(v int) int {
	if v <= g.min {
		return g.min
	}
	if v >= g.max {
		return g.max
	}
	return g.min + (v-g.min+g.step/2)/g.step*g.step
}

// refGroupDefs also returns each group's unaligned intersection top, which the
// old config.CoarseValues interpolated over.
func refGroupDefs(space *config.Space) (defs []refGroupDef, rawTops []int) {
	members := config.GroupMembers(space)
	for _, g := range config.Groups() {
		idx := members[g]
		if len(idx) == 0 {
			continue
		}
		d := refGroupDef{group: g, members: idx,
			min: space.Def(idx[0]).Min, max: space.Def(idx[0]).Max, step: space.Def(idx[0]).Step}
		for _, i := range idx[1:] {
			pd := space.Def(i)
			if pd.Min > d.min {
				d.min = pd.Min
			}
			if pd.Max < d.max {
				d.max = pd.Max
			}
			if pd.Step < d.step {
				d.step = pd.Step
			}
		}
		rawTops = append(rawTops, d.max)
		d.max = d.min + (d.max-d.min)/d.step*d.step
		defs = append(defs, d)
	}
	return defs, rawTops
}

type refGroupLattice struct {
	defs    []refGroupDef
	levels  []int
	strides []int
	keys    []string
}

func newRefGroupLattice(defs []refGroupDef) *refGroupLattice {
	l := &refGroupLattice{defs: defs, levels: make([]int, len(defs)), strides: make([]int, len(defs))}
	total := 1
	for gi := len(defs) - 1; gi >= 0; gi-- {
		l.levels[gi] = defs[gi].levels()
		l.strides[gi] = total
		total *= l.levels[gi]
	}
	l.keys = make([]string, total)
	vals := make([]int, len(defs))
	var rec func(gi, idx int)
	rec = func(gi, idx int) {
		if gi == len(defs) {
			parts := make([]string, len(vals))
			for i, v := range vals {
				parts[i] = strconv.Itoa(v)
			}
			l.keys[idx] = strings.Join(parts, ",")
			return
		}
		for li := 0; li < l.levels[gi]; li++ {
			vals[gi] = defs[gi].min + li*defs[gi].step
			rec(gi+1, idx+li*l.strides[gi])
		}
	}
	rec(0, 0)
	return l
}

func (l *refGroupLattice) value(idx, gi int) int {
	return l.defs[gi].min + (idx/l.strides[gi])%l.levels[gi]*l.defs[gi].step
}

func (l *refGroupLattice) vector(cfg config.Config) []float64 {
	vec := make([]float64, len(l.defs))
	for gi, d := range l.defs {
		var sum float64
		for _, i := range d.members {
			sum += float64(cfg[i])
		}
		vec[gi] = sum / float64(len(d.members))
	}
	return vec
}

func (l *refGroupLattice) stateKey(cfg config.Config) string {
	idx := 0
	for gi, v := range l.vector(cfg) {
		d := l.defs[gi]
		idx += (d.clamp(int(math.Round(v))) - d.min) / d.step * l.strides[gi]
	}
	return l.keys[idx]
}

func (l *refGroupLattice) trainingMDP(predict func(vals []int) float64, sla float64) (*mdp.Structure, []float64, error) {
	defs := l.defs
	actions := 2*len(defs) + 1
	rewards := make([]float64, len(l.keys))
	trans := make([]int32, len(l.keys)*actions)
	vals := make([]int, len(defs))
	for idx := range l.keys {
		for gi := range defs {
			vals[gi] = l.value(idx, gi)
		}
		rewards[idx] = sla - predict(vals)
		base := idx * actions
		trans[base] = int32(idx) // keep
		for gi, d := range defs {
			li := (vals[gi] - d.min) / d.step
			trans[base+1+2*gi] = -1 // increase
			trans[base+2+2*gi] = -1 // decrease
			if li+1 < l.levels[gi] {
				trans[base+1+2*gi] = int32(idx + l.strides[gi])
			}
			if li > 0 {
				trans[base+2+2*gi] = int32(idx - l.strides[gi])
			}
		}
	}
	st, err := mdp.NewStructureFromTransitions(slices.Clone(l.keys), actions, trans)
	return st, rewards, err
}

// raggedSpace groups parameters whose lattices disagree: different bounds and
// steps within a group, and a capacity intersection [20,90] at step 30 whose
// top is off the step grid (the lattice stops at 80, coarse sampling
// interpolates up to 90).
func raggedSpace() *config.Space {
	return config.MustSpace([]config.Def{
		{Param: config.MaxClients, Name: "a", Group: config.GroupCapacity, Min: 0, Max: 90, Step: 30, Default: 30},
		{Param: config.KeepAliveTimeout, Name: "c", Group: config.GroupTimeout, Min: 1, Max: 21, Step: 2, Default: 5},
		{Param: config.MinSpareServers, Name: "e", Group: config.GroupMinSpare, Min: 5, Max: 85, Step: 10, Default: 5},
		{Param: config.MaxThreads, Name: "b", Group: config.GroupCapacity, Min: 20, Max: 100, Step: 40, Default: 60},
		{Param: config.SessionTimeout, Name: "d", Group: config.GroupTimeout, Min: 3, Max: 35, Step: 4, Default: 7},
		{Param: config.CapacityLevel, Name: "f", Group: config.GroupScale, Min: 1, Max: 3, Step: 1, Default: 3},
	})
}

// TestGroupingMatchesReference pins everything the policy derives from
// config.Grouping to the reference above, on every shipped space and a ragged
// one: group state keys in order, the offline MDP's every transition and
// reward, the coarse sublattice, group-state resolution and predictions on
// random lattice configurations, and the recommendation.
func TestGroupingMatchesReference(t *testing.T) {
	spaces := map[string]*config.Space{
		"default":   config.Default(),
		"admission": config.WithAdmission(),
		"capacity":  config.WithCapacity(),
		"ragged":    raggedSpace(),
	}
	for name, space := range spaces {
		t.Run(name, func(t *testing.T) {
			refDefs, rawTops := refGroupDefs(space)
			ref := newRefGroupLattice(refDefs)
			bowl := func(cfg config.Config) (float64, error) {
				rt := 0.3
				for gi, v := range ref.vector(cfg) {
					d := (v - float64(refDefs[gi].min+refDefs[gi].max)/2) / float64(refDefs[gi].max)
					rt += float64(gi+1) * d * d
				}
				return rt, nil
			}
			batch := mdp.DefaultBatchConfig()
			batch.MaxSweeps = 2
			p, err := learnPolicy(name, space, bowl, InitOptions{CoarseLevels: 3, Seed: 7, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}

			if keys := p.lattice.States(); !slices.Equal(keys, ref.keys) {
				t.Fatalf("group state keys differ:\n  got %v…\n want %v…", keys[:3], ref.keys[:3])
			}
			st, rewards := p.trainingMDP(parallel.Options{Procs: 3})
			refPredict := func(vals []int) float64 {
				vec := make([]float64, len(vals))
				for i, v := range vals {
					vec[i] = float64(v)
				}
				return math.Max(math.Exp(p.quad.Eval(vec)), p.floorRT)
			}
			refSt, refRewards, err := ref.trainingMDP(refPredict, p.sla)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, refSt) {
				t.Fatal("offline mdp.Structure (states / transitions / feasible-action lists) differs from the reference's")
			}
			if !slices.Equal(rewards, refRewards) {
				t.Fatal("offline rewards differ from the reference's")
			}

			// The coarse sublattice: the old CoarseValues interpolated over the
			// unaligned intersection, the old GroupedConfig snapped per parameter.
			for k := 2; k <= 4; k++ {
				cfgs, values, err := p.groups.Coarse(k)
				if err != nil {
					t.Fatal(err)
				}
				n := 1
				for range refDefs {
					n *= k
				}
				if len(cfgs) != n || len(values) != n {
					t.Fatalf("k=%d: %d configs, %d value vectors, want %d", k, len(cfgs), len(values), n)
				}
				for i := range cfgs {
					want := make(config.Config, space.Len())
					for gi, rem := len(refDefs)-1, i; gi >= 0; gi, rem = gi-1, rem/k {
						d := refDefs[gi]
						v := d.min + (rawTops[gi]-d.min)*(rem%k)/(k-1)
						if values[i][gi] != float64(v) {
							t.Fatalf("k=%d point %d group %d: coarse value %v, want %d", k, i, gi, values[i][gi], v)
						}
						for _, pi := range d.members {
							pd := space.Def(pi)
							want[pi] = pd.Value(pd.Index(v))
						}
					}
					if !cfgs[i].Equal(want) {
						t.Fatalf("k=%d point %d: config %v, want %v", k, i, cfgs[i], want)
					}
				}
			}

			rng := sim.NewRNG(0x9a0)
			for i := 0; i < 1000; i++ {
				cfg := randomConfig(space, rng)
				if got, want := p.lattice.States()[p.groups.Ordinal(cfg)], ref.stateKey(cfg); got != want {
					t.Fatalf("%v: group state %q, want %q", cfg, got, want)
				}
				if got, want := p.PredictRT(cfg), math.Max(math.Exp(p.quad.Eval(ref.vector(cfg))), p.floorRT); got != want {
					t.Fatalf("%v: PredictRT %v, want %v", cfg, got, want)
				}
			}

			best, bestRT := -1, 0.0
			for idx := range ref.keys {
				vec := make([]float64, len(refDefs))
				for gi := range refDefs {
					vec[gi] = float64(ref.value(idx, gi))
				}
				if rt := math.Exp(p.quad.Eval(vec)); best < 0 || rt < bestRT {
					best, bestRT = idx, rt
				}
			}
			want := make(config.Config, space.Len())
			for gi, d := range refDefs {
				for _, pi := range d.members {
					pd := space.Def(pi)
					want[pi] = pd.Value(pd.Index(ref.value(best, gi)))
				}
			}
			got, err := p.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("Recommend() = %v, want %v", got, want)
			}
		})
	}
}
