package workload

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
)

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"empty", Scenario{}, false},
		{"no load", Scenario{Phases: []Phase{{DurationSeconds: 60, Mix: "shopping"}}}, false},
		{"bad mix", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "bursty"}}}, false},
		{"bad arrival", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping", Arrival: "pareto"}}}, false},
		{"ok", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping"}}}, true},
		// Compile's grid cells would be zero wide, and its lookups index out
		// of range; then a sum of phases that overflows.
		{"tiny total", Scenario{Phases: []Phase{{DurationSeconds: 1e-323, Rate: 10, Mix: "shopping"}}}, false},
		{"infinite total", Scenario{Phases: []Phase{{DurationSeconds: 1e308, Rate: 10, Mix: "shopping"},
			{DurationSeconds: 1e308, Rate: 10, Mix: "shopping"}}}, false},
		{"bad sinusoid", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping",
			Modulate: []Modulation{{Op: OpSinusoid, Amplitude: 0.5}}}}}, false},
		{"amplitude too big", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping",
			Modulate: []Modulation{{Op: OpSinusoid, PeriodSeconds: 60, Amplitude: 1.5}}}}}, false},
		{"spike after end", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping",
			Modulate: []Modulation{{Op: OpSpike, AtSeconds: 90, DurationSeconds: 5, Factor: 2}}}}}, false},
		{"zero ramp", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping",
			Modulate: []Modulation{{Op: OpRamp}}}}}, false},
		{"unknown op", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping",
			Modulate: []Modulation{{Op: "sawtooth", Factor: 2}}}}}, false},
		{"drift bad mix", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping",
			MixDrift: &MixDrift{To: "none"}}}}, false},
		{"drift bad window", Scenario{Phases: []Phase{{DurationSeconds: 60, Rate: 10, Mix: "shopping",
			MixDrift: &MixDrift{To: "ordering", StartSeconds: 50, EndSeconds: 40}}}}, false},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for name, sc := range Library() {
		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%s: round trip changed the scenario:\n  %#v\nvs\n  %#v", name, sc, back)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(bytes.NewBufferString(`{"phases": [], "burst": 3}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

// TestLoadRejectsTrailingData: a scenario file is one JSON document; a second
// document or junk after the first is an error, not silently dropped.
func TestLoadRejectsTrailingData(t *testing.T) {
	const phase = `{"phases":[{"durationSeconds":600,"rate":10,"mix":"shopping"}]}`
	if _, err := Load(bytes.NewBufferString(phase + "\n")); err != nil {
		t.Fatalf("one document: %v", err)
	}
	for _, in := range []string{phase + ` {"phases":[]} garbage`, phase + ` trailing junk`, phase + phase} {
		if _, err := Load(bytes.NewBufferString(in)); err == nil || !strings.Contains(err.Error(), "after the document") {
			t.Errorf("Load(%q) = %v, want a data-after-the-document error", in, err)
		}
	}
}

func TestLibraryCompiles(t *testing.T) {
	for name, sc := range Library() {
		if _, err := Compile(sc); err != nil {
			t.Errorf("%s: compile: %v", name, err)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	sc := Scenario{
		IntervalSeconds: 100,
		Phases: []Phase{
			{Name: "flat", DurationSeconds: 400, Rate: 10, Clients: 100, Mix: "browsing"},
			{Name: "climb", DurationSeconds: 400, Rate: 10, Clients: 100, Mix: "shopping",
				Modulate: []Modulation{{Op: OpRamp, From: 1, To: 3}}},
			{Name: "spiky", DurationSeconds: 400, Rate: 20, Clients: 200, Mix: "ordering",
				Modulate: []Modulation{{Op: OpSpike, AtSeconds: 100, DurationSeconds: 100, Factor: 2}}},
		},
	}
	s, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Duration(); got != 1200 {
		t.Fatalf("duration = %g, want 1200", got)
	}
	approx := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %g, want %g ± %g", name, got, want, tol)
		}
	}
	approx("flat rate", s.RateAt(200), 10, 1e-9)
	approx("ramp midpoint", s.RateAt(600), 20, 1e-9) // factor 2 at mid-phase
	approx("spike inside", s.RateAt(950), 40, 1e-9)
	approx("spike outside", s.RateAt(1150), 20, 1e-9)
	approx("held past end", s.RateAt(5000), 20, 1e-9)
	if got := s.ClientsAt(600); got != 200 {
		t.Errorf("ClientsAt(600) = %d, want 200", got)
	}
	if i, name := s.PhaseAt(500); i != 1 || name != "climb" {
		t.Errorf("PhaseAt(500) = %d %q, want 1 climb", i, name)
	}
	if i, name := s.PhaseAt(99999); i != 2 || name != "spiky" {
		t.Errorf("PhaseAt(past end) = %d %q, want 2 spiky", i, name)
	}
	// Mean rate over the spike interval [900, 1000) is the doubled rate.
	approx("offered over spike", s.OfferedRate(900, 1000), 40, 0.5)
	// The ramp phase integrates to 2× its base on average.
	approx("offered over ramp", s.OfferedRate(400, 800), 20, 0.5)
	if w := s.WorkloadAt(0, 100); w.Mix != tpcw.Browsing || w.Clients != 100 {
		t.Errorf("WorkloadAt(flat) = %v, want browsing×100", w)
	}
	if w := s.WorkloadAt(500, 700); w.Mix != tpcw.Shopping {
		t.Errorf("WorkloadAt(climb) mix = %v, want shopping", w.Mix)
	}
}

func TestMixDriftBlends(t *testing.T) {
	sc := Scenario{Phases: []Phase{{
		DurationSeconds: 1000, Rate: 10, Clients: 100, Mix: "browsing",
		MixDrift: &MixDrift{To: "ordering"},
	}}}
	s, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	start := s.MixProbsAt(0)
	end := s.MixProbsAt(999.9)
	if !reflect.DeepEqual(start, tpcw.ClassProbs(tpcw.Browsing)) {
		t.Errorf("drift start probs = %v, want browsing", start)
	}
	for i, p := range s.MixProbsAt(500) {
		want := (tpcw.ClassProbs(tpcw.Browsing)[i] + tpcw.ClassProbs(tpcw.Ordering)[i]) / 2
		if math.Abs(p-want) > 1e-9 {
			t.Errorf("midpoint prob %d = %g, want %g", i, p, want)
		}
	}
	var sum float64
	for _, p := range end {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("end probs sum to %g", sum)
	}
	if w := s.WorkloadAt(900, 1000); w.Mix != tpcw.Ordering {
		t.Errorf("post-drift dominant mix = %v, want ordering", w.Mix)
	}
}

func TestWindowArrivals(t *testing.T) {
	s, err := Compile(Scenario{Phases: []Phase{
		{DurationSeconds: 600, Rate: 10, Mix: "shopping"},
		{DurationSeconds: 600, Rate: 10, Mix: "shopping",
			Modulate: []Modulation{{Op: OpRamp, From: 1, To: 3}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rng := ScheduleRNG(7)
	var all []Arrival
	for i := 0; i < 4; i++ {
		t0, t1 := float64(i)*300, float64(i+1)*300
		win := s.Window(rng, t0, t1)
		for k, a := range win {
			if a.T < t0 || a.T >= t1 {
				t.Fatalf("window %d arrival %d at %g outside [%g, %g)", i, k, a.T, t0, t1)
			}
			if k > 0 && a.T < win[k-1].T {
				t.Fatalf("window %d arrivals out of order at %d", i, k)
			}
		}
		// Count equals the rounded rate integral over the window.
		want := int(s.cum(s.cumRate, s.endRate, t1) - s.cum(s.cumRate, s.endRate, t0) + 0.5)
		if len(win) != want {
			t.Errorf("window %d: %d arrivals, want %d", i, len(win), want)
		}
		all = append(all, win...)
	}
	// Flat phase ≈ 10 req/s × 600 s; ramp phase averages 2× that.
	if n := len(all); n < 17000 || n > 19000 {
		t.Errorf("total arrivals = %d, want ≈ 18000", n)
	}

	// Same seed, same windows → identical arrivals.
	rng2 := ScheduleRNG(7)
	var again []Arrival
	for i := 0; i < 4; i++ {
		again = append(again, s.Window(rng2, float64(i)*300, float64(i+1)*300)...)
	}
	if !reflect.DeepEqual(all, again) {
		t.Error("same seed replay diverged")
	}

	// Different seed → different arrivals.
	rng3 := ScheduleRNG(8)
	other := s.Window(rng3, 0, 300)
	if reflect.DeepEqual(all[:len(other)], other) {
		t.Error("different seeds produced identical arrivals")
	}
}

func TestUniformWindowIsEvenlySpaced(t *testing.T) {
	s, err := Compile(Scenario{Phases: []Phase{
		{DurationSeconds: 100, Rate: 10, Mix: "browsing", Arrival: "uniform"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	win := s.Window(ScheduleRNG(1), 0, 100)
	if len(win) != 1000 {
		t.Fatalf("got %d arrivals, want 1000", len(win))
	}
	gap := win[1].T - win[0].T
	for k := 2; k < len(win); k++ {
		if math.Abs(win[k].T-win[k-1].T-gap) > 1e-6 {
			t.Fatalf("uneven gap at %d: %g vs %g", k, win[k].T-win[k-1].T, gap)
		}
	}
}

func TestSequencer(t *testing.T) {
	s, err := Compile(Ramp())
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequencer(s, s.Scenario().Interval())
	if got := q.Len(); got != 12 {
		t.Fatalf("Len = %d, want 12 (3600 s / 300 s)", got)
	}
	first, last := q.At(0), q.At(q.Len()-1)
	if first.PhaseName != "idle" || last.PhaseName != "climb" {
		t.Errorf("phases = %q … %q, want idle … climb", first.PhaseName, last.PhaseName)
	}
	if last.OfferedRate <= first.OfferedRate*2 {
		t.Errorf("ramp did not climb: %g → %g", first.OfferedRate, last.OfferedRate)
	}
	if first.Workload.Mix != tpcw.Browsing || last.Workload.Mix != tpcw.Shopping {
		t.Errorf("mixes = %v … %v", first.Workload.Mix, last.Workload.Mix)
	}
}

func TestSequencerTelemetry(t *testing.T) {
	s, err := Compile(Ramp())
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequencer(s, 300)
	reg := telemetry.NewRegistry()
	q.SetTelemetry(reg)
	for i := 0; i < q.Len(); i++ {
		q.Observe(i)
	}
	if got := q.transitions.Value(); got != 1 {
		t.Errorf("phase transitions = %d, want 1", got)
	}
	want := q.At(q.Len() - 1).OfferedRate
	if got := q.offered.Value(); got != want {
		t.Errorf("offered gauge = %g, want %g", got, want)
	}
}

func TestScale(t *testing.T) {
	sc := Diurnal()
	half := sc.Scale(0.5)
	if got, want := half.Duration(), sc.Duration()/2; got != want {
		t.Fatalf("scaled duration = %g, want %g", got, want)
	}
	day := half.Phases[2]
	if m := day.Modulate[0]; m.PeriodSeconds != 32400 {
		t.Errorf("scaled period = %g, want 32400", m.PeriodSeconds)
	}
	if m := day.Modulate[1]; m.AtSeconds != 21600 || m.DurationSeconds != 2700 {
		t.Errorf("scaled spike = at %g dur %g", m.AtSeconds, m.DurationSeconds)
	}
	if d := half.Phases[3].MixDrift; d.StartSeconds != 0 || d.EndSeconds != 2700 {
		t.Errorf("scaled drift window = [%g, %g]", d.StartSeconds, d.EndSeconds)
	}
	// The original is untouched (Scale deep-copies the slices it edits).
	if sc.Phases[2].Modulate[0].PeriodSeconds != 64800 {
		t.Error("Scale mutated its receiver")
	}
	if _, err := Compile(half); err != nil {
		t.Errorf("scaled scenario no longer compiles: %v", err)
	}
}

// TestExamplesMatchLibrary keeps the shipped examples/scenarios/*.json files
// byte-honest with the in-code library constructors they document.
func TestExamplesMatchLibrary(t *testing.T) {
	for name, want := range Library() {
		got, err := LoadFile(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("examples/scenarios/%s.json differs from workload.Library()[%q]:\nfile: %+v\ncode: %+v",
				name, name, got, want)
		}
	}
}

// FuzzLoadScenario holds Load, which reads scenario files from outside the
// program, to three properties: an accepted scenario compiles; the compiled
// schedule answers Duration, RateAt, OfferedRate and WorkloadAt without
// panicking, inside the scenario, at its edges and past its end; and the
// scenario saves and loads again to an equal value. The seeds are the shipped
// examples/scenarios/*.json files.
func FuzzLoadScenario(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios to seed from: %v", err)
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
		s, err := Compile(sc)
		if err != nil {
			t.Fatalf("a loaded scenario does not compile: %v", err)
		}
		d := s.Duration()
		for _, at := range []float64{-1, 0, d / 3, d / 2, d, 2 * d} {
			s.RateAt(at)
			s.OfferedRate(at, at+sc.Interval())
			s.WorkloadAt(at, at+sc.Interval())
		}

		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("a saved scenario does not load: %v\n%s", err, buf.Bytes())
		}
		// An empty operator stack is omitted from the file and loads as nil.
		for i := range sc.Phases {
			if len(sc.Phases[i].Modulate) == 0 {
				sc.Phases[i].Modulate = nil
			}
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the scenario:\n  %#v\nvs\n  %#v", sc, back)
		}
	})
}

// Save writes the scenario as indented JSON.
func (s Scenario) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
