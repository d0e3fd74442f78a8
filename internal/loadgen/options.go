package loadgen

import (
	"errors"
	"fmt"
	"net/url"
	"time"

	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/workload"
)

// Validation sentinels. Callers branch on these with errors.Is instead of
// matching message strings; every constructor error wraps exactly one.
var (
	// ErrBadURL marks an unparsable or empty base URL.
	ErrBadURL = errors.New("loadgen: invalid base url")
	// ErrBadWorkload marks an invalid traffic mix or client population.
	ErrBadWorkload = errors.New("loadgen: invalid workload")
	// ErrBadRate marks a negative offered rate.
	ErrBadRate = errors.New("loadgen: invalid rate")
	// ErrBadArrival marks an unknown arrival process.
	ErrBadArrival = errors.New("loadgen: invalid arrival process")
	// ErrBadInFlight marks a negative in-flight bound.
	ErrBadInFlight = errors.New("loadgen: invalid in-flight bound")
	// ErrBadTimeout marks a negative per-request timeout.
	ErrBadTimeout = errors.New("loadgen: invalid timeout")
)

// Arrival selects the open-loop arrival process.
type Arrival string

// The supported arrival processes.
const (
	// ArrivalPoisson spaces arrivals with exponential gaps — the memoryless
	// process heavy web traffic is usually modeled by. The default.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalUniform spaces arrivals evenly — a constant-rate probe that
	// isolates service-time variance from arrival variance.
	ArrivalUniform Arrival = "uniform"
)

// ParseArrival resolves an arrival-process name, accepting the empty string
// as the default (Poisson).
func ParseArrival(name string) (Arrival, error) {
	switch Arrival(name) {
	case "", ArrivalPoisson:
		return ArrivalPoisson, nil
	case ArrivalUniform:
		return ArrivalUniform, nil
	}
	return "", fmt.Errorf("%w: %q (want poisson or uniform)", ErrBadArrival, name)
}

// Options configure a Driver, in the same validated-struct idiom as
// system.SimulatedOptions and core.AgentOptions. The zero values of the
// open-loop fields select the closed-loop emulated-browser driver, which
// behaves byte-identically to the historical positional constructor.
type Options struct {
	// BaseURL is the stack under test ("http://127.0.0.1:port"). Required.
	BaseURL string
	// Workload is the traffic mix and, for the closed loop, the emulated
	// browser population. Open-loop runs use only the mix. Required.
	Workload tpcw.Workload
	// Seed drives every random draw (think times, classes, arrival gaps).
	Seed uint64

	// Rate switches the driver to the open-loop engine when positive: the
	// offered load in paper-scale requests per second (the same unit every
	// reported Throughput uses), independent of how fast the system answers.
	// Zero keeps the closed loop.
	Rate float64
	// Schedule also selects the open-loop engine, driving it from a compiled
	// workload scenario instead of the static Rate: each Run consumes the
	// next interval-sized window of the schedule, so offered load varies
	// across intervals exactly as the scenario scripts. Mutually exclusive
	// with Rate; the schedule's own per-window mix and arrival process
	// override Workload.Mix and ArrivalProcess.
	Schedule *workload.Schedule
	// ArrivalProcess spaces the open-loop arrivals; empty means Poisson.
	ArrivalProcess Arrival
	// MaxInFlight bounds concurrently outstanding requests — the engine's
	// admission control: it runs exactly this many pacing workers. Arrivals
	// that cannot be issued within shedGrace of their scheduled time are
	// counted as shed rather than silently delayed. Zero means 64.
	MaxInFlight int
	// Timeout bounds one request (wall clock). Zero means 5s, matching the
	// closed-loop browsers.
	Timeout time.Duration
}

// withDefaults validates opts and resolves the zero values.
func (o Options) withDefaults() (Options, error) {
	if o.BaseURL == "" {
		return o, fmt.Errorf("%w: empty", ErrBadURL)
	}
	if _, err := url.Parse(o.BaseURL); err != nil {
		return o, fmt.Errorf("%w: %v", ErrBadURL, err)
	}
	if err := o.Workload.Validate(); err != nil {
		return o, fmt.Errorf("%w: %v", ErrBadWorkload, err)
	}
	if o.Rate < 0 {
		return o, fmt.Errorf("%w: %g req/s", ErrBadRate, o.Rate)
	}
	if o.Schedule != nil && o.Rate > 0 {
		return o, fmt.Errorf("%w: a schedule and a static rate are mutually exclusive", ErrBadRate)
	}
	arr, err := ParseArrival(string(o.ArrivalProcess))
	if err != nil {
		return o, err
	}
	o.ArrivalProcess = arr
	if o.MaxInFlight < 0 {
		return o, fmt.Errorf("%w: %d", ErrBadInFlight, o.MaxInFlight)
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 64
	}
	if o.Timeout < 0 {
		return o, fmt.Errorf("%w: %v", ErrBadTimeout, o.Timeout)
	}
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	return o, nil
}
