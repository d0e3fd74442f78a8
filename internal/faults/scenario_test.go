package faults

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/parallel"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"empty", Scenario{}},
		{"named seeded", Scenario{Name: "burst", Seed: 42}},
		{"scripted windows", Scenario{Rules: []Rule{
			{Kind: ApplyError, From: 5, To: 8},
			{Kind: CapacityDrop, From: 22, To: 28, Magnitude: 2},
		}}},
		{"stochastic open-ended", Scenario{Name: "noisy", Seed: 9, Rules: []Rule{
			{Kind: MeasureNoise, Probability: 0.3, Magnitude: 0.5},
			{Kind: MeasureOutlier, Probability: 0.05},
		}}},
		{"every kind", Scenario{Rules: func() []Rule {
			var rs []Rule
			for i, k := range Kinds() {
				rs = append(rs, Rule{Kind: k, From: i + 1, To: i + 2})
			}
			return rs
		}()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.sc.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.sc) {
				t.Fatalf("round trip:\n got  %+v\n want %+v", got, tc.sc)
			}
		})
	}
}

func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown kind", `{"rules":[{"kind":"disk-full"}]}`, "unknown kind"},
		{"unknown field", `{"rules":[],"jitter":1}`, "decode scenario"},
		{"bad probability", `{"rules":[{"kind":"latency-spike","probability":1.5}]}`, "probability"},
		{"inverted window", `{"rules":[{"kind":"apply-error","from":9,"to":3}]}`, "before it starts"},
		{"negative magnitude", `{"rules":[{"kind":"latency-spike","magnitude":-2}]}`, "negative magnitude"},
		{"burst fraction", `{"rules":[{"kind":"error-burst","magnitude":1.5}]}`, "fraction"},
		{"garbage", `{"rules":`, "decode scenario"},
		{"trailing junk", `{"rules":[]} trailing junk`, "after the document"},
		{"second document", `{"rules":[]} {"rules":[]}`, "after the document"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestRuleWindowAndDefaults(t *testing.T) {
	cases := []struct {
		rule     Rule
		interval int
		active   bool
	}{
		{Rule{Kind: LatencySpike}, 1, true},                  // zero window = always
		{Rule{Kind: LatencySpike}, 999, true},                // open-ended
		{Rule{Kind: LatencySpike, From: 3}, 2, false},        // before start
		{Rule{Kind: LatencySpike, From: 3}, 3, true},         // inclusive start
		{Rule{Kind: LatencySpike, From: 3, To: 5}, 5, true},  // inclusive end
		{Rule{Kind: LatencySpike, From: 3, To: 5}, 6, false}, // past end
	}
	for _, tc := range cases {
		if got := tc.rule.activeAt(tc.interval); got != tc.active {
			t.Errorf("%+v activeAt(%d) = %v, want %v", tc.rule, tc.interval, got, tc.active)
		}
	}
	defaults := map[Kind]float64{
		LatencySpike: 4, ErrorBurst: 0.6, CapacityDrop: 1, MeasureNoise: 0.2, MeasureOutlier: 10,
	}
	for k, want := range defaults {
		if got := (Rule{Kind: k}).magnitude(); got != want {
			t.Errorf("%s default magnitude = %v, want %v", k, got, want)
		}
	}
	if got := (Rule{Kind: LatencySpike, Magnitude: 7}).magnitude(); got != 7 {
		t.Errorf("explicit magnitude ignored: %v", got)
	}
}

func TestLastScheduled(t *testing.T) {
	sc := Scenario{Rules: []Rule{
		{Kind: LatencySpike, From: 1, To: 18},
		{Kind: MeasureOutlier, Probability: 0.1}, // open-ended: ignored
		{Kind: CapacityDrop, From: 22, To: 28},
	}}
	if got := sc.LastScheduled(); got != 28 {
		t.Fatalf("LastScheduled = %d, want 28", got)
	}
	if got := (Scenario{}).LastScheduled(); got != 0 {
		t.Fatalf("empty LastScheduled = %d, want 0", got)
	}
}

func TestExampleScenarioLoads(t *testing.T) {
	sc, err := LoadFile(filepath.Join("..", "..", "examples", "faults_basic.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rules) == 0 {
		t.Fatal("shipped example scenario has no rules")
	}
	if sc.LastScheduled() == 0 {
		t.Fatal("shipped example scenario is entirely open-ended; recovery would be unobservable")
	}
}

// TestDeterminismAcrossProcs replays the same stochastic scenario on many
// systems fanned out through internal/parallel at Procs=1 and Procs=8 and
// requires identical injection logs — the PR 2 determinism contract extended
// to the fault layer.
func TestDeterminismAcrossProcs(t *testing.T) {
	sc := Scenario{Name: "stochastic", Seed: 77, Rules: []Rule{
		{Kind: ApplyError, Probability: 0.3},
		{Kind: LatencySpike, Probability: 0.4, Magnitude: 3},
		{Kind: MeasureNoise, Probability: 0.5},
		{Kind: MeasureOutlier, Probability: 0.1},
		{Kind: ErrorBurst, From: 4, To: 9, Probability: 0.5},
	}}
	const replicas = 12

	run := func(procs int) [][]Injection {
		t.Helper()
		logs, err := parallel.Map(parallel.Options{Procs: procs}, replicas, func(i int) ([]Injection, error) {
			s, err := New(newFlatSystem(), Options{Scenario: sc, Seed: uint64(i)})
			if err != nil {
				return nil, err
			}
			for iv := 0; iv < 30; iv++ {
				s.Apply(context.Background(), s.Space().DefaultConfig()) // may transiently fail: ignore
				s.Measure(context.Background())
			}
			return s.Injected(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return logs
	}

	serial, wide := run(1), run(8)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("fault sequences differ between Procs=1 and Procs=8")
	}
	// Replicas with different seeds must not share a fault sequence, or the
	// seed is not reaching the RNG.
	if reflect.DeepEqual(serial[0], serial[1]) {
		t.Fatal("distinct seeds produced identical fault sequences")
	}
}

// FuzzLoadFaults holds Load, which reads fault scripts from outside the
// program, to one property: a script it accepts saves and loads again to an
// equal value. The seeds are the shipped examples/faults_*.json files.
func FuzzLoadFaults(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "faults_*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example fault scripts to seed from: %v", err)
	}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("a saved script does not load: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the script:\n  %#v\nvs\n  %#v", sc, back)
		}
	})
}

// Save writes the scenario as indented JSON.
func (s Scenario) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
