package tpcw

import (
	"math"
	"testing"

	"github.com/rac-project/rac/internal/sim"
)

func TestMixStringsAndParse(t *testing.T) {
	for _, m := range Mixes() {
		parsed, err := ParseMix(m.String())
		if err != nil || parsed != m {
			t.Errorf("ParseMix(%q) = %v, %v", m.String(), parsed, err)
		}
	}
	if _, err := ParseMix("nope"); err == nil {
		t.Error("unknown mix parsed")
	}
}

func TestClassProbsSumToOne(t *testing.T) {
	for _, m := range Mixes() {
		probs := ClassProbs(m)
		if len(probs) != len(Classes()) {
			t.Fatalf("%s: %d probs for %d classes", m, len(probs), len(Classes()))
		}
		var sum float64
		for _, p := range probs {
			if p < 0 {
				t.Fatalf("%s: negative probability", m)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: probabilities sum to %v", m, sum)
		}
	}
}

func TestOrderingFractionRises(t *testing.T) {
	// The ordering-path share (cart+buy) must follow TPC-W: browsing 5%,
	// shopping 20%, ordering 50%.
	orderShare := func(m Mix) float64 {
		probs := ClassProbs(m)
		var share float64
		for i, c := range Classes() {
			if c == ClassShoppingCart || c == ClassBuyConfirm {
				share += probs[i]
			}
		}
		return share
	}
	b, s, o := orderShare(Browsing), orderShare(Shopping), orderShare(Ordering)
	if !(b < s && s < o) {
		t.Fatalf("ordering shares not increasing: %v %v %v", b, s, o)
	}
	if math.Abs(b-0.05) > 0.001 || math.Abs(s-0.20) > 0.001 || math.Abs(o-0.50) > 0.001 {
		t.Fatalf("ordering shares %v/%v/%v, want 0.05/0.20/0.50", b, s, o)
	}
}

func TestMeanDemandOrderingHeavier(t *testing.T) {
	b := MeanDemand(Browsing)
	o := MeanDemand(Ordering)
	if o.App <= b.App || o.DB <= b.DB {
		t.Fatalf("ordering should be heavier downstream: %+v vs %+v", o, b)
	}
}

func TestDemandArithmetic(t *testing.T) {
	d := Demand{Web: 1, App: 2, DB: 3, IO: 4}
	if d.Total() != 10 {
		t.Fatalf("Total = %v", d.Total())
	}
	s := d.Scale(2)
	if s.Web != 2 || s.IO != 8 {
		t.Fatalf("Scale = %+v", s)
	}
	sum := d.Add(s)
	if sum.App != 6 || sum.DB != 9 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestClassDemandsPositive(t *testing.T) {
	for _, c := range Classes() {
		d := ClassDemand(c)
		if d.Web <= 0 || d.App <= 0 || d.DB <= 0 || d.IO <= 0 {
			t.Errorf("%s: non-positive demand %+v", c, d)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{Mix: Shopping, Clients: 100}).Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if err := (Workload{Mix: Mix(0), Clients: 100}).Validate(); err == nil {
		t.Fatal("invalid mix accepted")
	}
	if err := (Workload{Mix: Shopping, Clients: 0}).Validate(); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestGeneratorClassDistribution(t *testing.T) {
	gen, err := NewGenerator(Ordering, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[Class]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[gen.NextClass()]++
	}
	probs := ClassProbs(Ordering)
	for i, c := range Classes() {
		got := float64(counts[c]) / n
		if math.Abs(got-probs[i]) > 0.01 {
			t.Errorf("%s: frequency %v, want %v", c, got, probs[i])
		}
	}
}

func TestGeneratorUnknownMix(t *testing.T) {
	if _, err := NewGenerator(Mix(42), sim.NewRNG(1)); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestGeneratorThinkTimeMean(t *testing.T) {
	gen, _ := NewGenerator(Shopping, sim.NewRNG(7))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += gen.ThinkTime()
	}
	mean := sum / n
	if math.Abs(mean-MeanThinkTimeSeconds)/MeanThinkTimeSeconds > 0.05 {
		t.Fatalf("think-time mean %v", mean)
	}
}

func TestGeneratorSessionLength(t *testing.T) {
	gen, _ := NewGenerator(Shopping, sim.NewRNG(11))
	ends := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if gen.SessionOver() {
			ends++
		}
	}
	rate := float64(ends) / n
	want := 1.0 / MeanSessionLength
	if math.Abs(rate-want)/want > 0.1 {
		t.Fatalf("session end rate %v, want %v", rate, want)
	}
}

func TestRequestDemandUnitMean(t *testing.T) {
	gen, _ := NewGenerator(Ordering, sim.NewRNG(13))
	base := ClassDemand(ClassSearch)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		d := gen.RequestDemand(ClassSearch)
		if d.Web <= 0 {
			t.Fatal("non-positive sampled demand")
		}
		sum += d.Total()
	}
	mean := sum / n
	if math.Abs(mean-base.Total())/base.Total() > 0.03 {
		t.Fatalf("sampled demand mean %v, class mean %v", mean, base.Total())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := NewGenerator(Browsing, sim.NewRNG(5))
	b, _ := NewGenerator(Browsing, sim.NewRNG(5))
	for i := 0; i < 100; i++ {
		if a.NextClass() != b.NextClass() {
			t.Fatal("generators with equal seeds diverged")
		}
	}
}

// Total returns the summed demand across stages.
func (d Demand) Total() float64 { return d.Web + d.App + d.DB + d.IO }
