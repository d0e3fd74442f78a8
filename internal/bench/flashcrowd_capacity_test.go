package bench

import (
	"reflect"
	"testing"

	"github.com/rac-project/rac/internal/workload"
)

// TestFigFlashcrowdCapacityBeatsStaticPeak is the figure's acceptance claim:
// across the flash-crowd run the joint configuration+capacity controller
// serves at least the static peak's SLO-goodput with no worse tail latency,
// while its cumulative capacity bill stays strictly under always-on peak
// provisioning — and it gets there by actually scaling, not by luck of the
// starting level.
//
// The claim is checked at full fidelity (about five seconds): a quick-mode
// run has a third of the intervals, and whether its p99 sum lands on the
// right side of the baseline's flips from seed to seed.
func TestFigFlashcrowdCapacityBeatsStaticPeak(t *testing.T) {
	if raceDetector {
		t.Skip("full-fidelity simulation; the race detector slows it about 35×")
	}
	h := New(Options{Seed: 1})
	sc := h.scenarioFor(workload.FlashCrowd())

	capAware, err := h.runCapacityVariant(sc, "capacity-aware", true)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := h.runCapacityVariant(sc, "static-peak", false)
	if err != nil {
		t.Fatal(err)
	}

	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if cg, bg := sum(capAware.Goodput), sum(baseline.Goodput); cg < bg {
		t.Errorf("capacity-aware total goodput %.1f < static-peak %.1f", cg, bg)
	}
	if cp, bp := sum(capAware.P99), sum(baseline.P99); cp > bp {
		t.Errorf("capacity-aware mean p99 %.2fs worse than static-peak %.2fs",
			cp/float64(len(capAware.P99)), bp/float64(len(baseline.P99)))
	}
	n := len(capAware.Cost)
	if capAware.Cost[n-1] >= baseline.Cost[n-1] {
		t.Errorf("capacity bill %.0f not below static peak %.0f",
			capAware.Cost[n-1], baseline.Cost[n-1])
	}
	if capAware.ScaleUps == 0 {
		t.Error("fast path never scaled up through the flash crowd")
	}
	if capAware.Violations > baseline.Violations {
		t.Errorf("capacity-aware violations %d > static-peak %d",
			capAware.Violations, baseline.Violations)
	}
	if baseline.ScaleUps != 0 || baseline.ScaleDowns != 0 {
		t.Errorf("static-peak baseline scaled (ups=%d downs=%d)",
			baseline.ScaleUps, baseline.ScaleDowns)
	}
}

// TestFigFlashcrowdCapacityDeterminism pins byte-identity of the figure
// across repeated runs and across -procs settings: the analyzer and scaler
// tick on interval counts, policy training pre-splits its RNG streams, and
// the schedule is driven from one goroutine, so the worker-pool bound must be
// invisible in the output.
func TestFigFlashcrowdCapacityDeterminism(t *testing.T) {
	run := func(procs int) *Figure {
		h := New(Options{Seed: 1, Quick: true, Procs: procs})
		fig, err := h.FigFlashcrowdCapacity()
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	base := run(1)
	for _, procs := range []int{1, 8} {
		if got := run(procs); !reflect.DeepEqual(got, base) {
			t.Fatalf("procs=%d diverged:\n%+v\nvs\n%+v", procs, got, base)
		}
	}
}
