package workload

import (
	"math"

	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
)

// Interval is one measurement interval's slice of a schedule: its window, the
// offered load over it, the closed-loop workload equivalent, and the phase it
// falls in.
type Interval struct {
	// Index is the 0-based interval number.
	Index int
	// Start and End bound the window in scenario seconds.
	Start, End float64
	// OfferedRate is the mean offered load over the window (see
	// Schedule.OfferedRate for units).
	OfferedRate float64
	// Workload is the closed-loop/simulated equivalent of the window.
	Workload tpcw.Workload
	// Phase and PhaseName identify the scenario phase at the window start.
	Phase     int
	PhaseName string
}

// Sequencer walks a schedule one measurement interval at a time — the
// experiment driver's clock. It is the single place per-interval offered
// load becomes observable: Observe updates the workload telemetry
// instruments as the run crosses phase boundaries.
type Sequencer struct {
	src      *Schedule
	interval float64

	transitions *telemetry.Counter
	offered     *telemetry.Gauge
	lastPhase   int
}

// NewSequencer returns a sequencer slicing src into intervals of
// intervalSeconds (0 means DefaultIntervalSeconds; compiled scenarios carry
// their own preference in Scenario.Interval).
func NewSequencer(src *Schedule, intervalSeconds float64) *Sequencer {
	if intervalSeconds <= 0 {
		intervalSeconds = DefaultIntervalSeconds
	}
	return &Sequencer{src: src, interval: intervalSeconds, lastPhase: -1}
}

// IntervalSeconds returns the window length.
func (q *Sequencer) IntervalSeconds() float64 { return q.interval }

// Len returns how many whole intervals cover the schedule (at least 1).
func (q *Sequencer) Len() int {
	n := int(math.Ceil(q.src.Duration()/q.interval - 1e-9))
	if n < 1 {
		n = 1
	}
	return n
}

// SetTelemetry registers the workload instruments on reg: a phase-transition
// counter and the current offered-rate gauge. Call before the run; Observe
// keeps them current.
func (q *Sequencer) SetTelemetry(reg *telemetry.Registry) {
	q.transitions = reg.Counter("rac_workload_phase_transitions_total",
		"Scenario phase boundaries crossed by the workload sequencer.", nil)
	q.offered = reg.Gauge("rac_workload_offered_rate",
		"Offered load of the current measurement interval (req/s, or mean population for population-only scenarios).", nil)
}

// At describes interval i without touching telemetry.
func (q *Sequencer) At(i int) Interval {
	t0 := float64(i) * q.interval
	t1 := t0 + q.interval
	phase, name := q.src.PhaseAt(t0)
	return Interval{
		Index:       i,
		Start:       t0,
		End:         t1,
		OfferedRate: q.src.OfferedRate(t0, t1),
		Workload:    q.src.WorkloadAt(t0, t1),
		Phase:       phase,
		PhaseName:   name,
	}
}

// Observe describes interval i and updates the telemetry instruments,
// counting a phase transition when i's phase differs from the last observed
// one.
func (q *Sequencer) Observe(i int) Interval {
	iv := q.At(i)
	if q.offered != nil {
		q.offered.Set(iv.OfferedRate)
	}
	if q.lastPhase >= 0 && iv.Phase != q.lastPhase && q.transitions != nil {
		q.transitions.Inc()
	}
	q.lastPhase = iv.Phase
	return iv
}
