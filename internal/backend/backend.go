// Package backend turns one declarative Spec into a running, wrapped system.
// The backend-name switch ("sim", "analytic", "live") and the decorator order
// (capacity innermost, faults outermost) are written here and nowhere else:
// rac.BuildSystem (racagent, racsim) and the fleet's tenant admission (racd)
// both build through it.
package backend

import (
	"context"
	"fmt"
	"time"

	"github.com/rac-project/rac/internal/capacity"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/faults"
	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/loadgen"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/webtier"
)

// Spec declares a system to tune, in one struct that covers every backend and
// decorator the commands and the fleet expose.
type Spec struct {
	// Backend selects the system kind: "sim" (discrete-time simulator, the
	// default), "analytic" (MVA queueing surface), or "live" (real in-process
	// HTTP stack plus load generator).
	Backend string
	// Space defaults to config.Default().
	Space *config.Space
	// Initial is the starting configuration; nil means the space default.
	Initial config.Config
	// Context sets the workload and VM level the system starts in.
	Context system.Context
	// Seed drives every stream the backend consumes (simulation, noise,
	// load-generator arrivals, fault schedule).
	Seed uint64

	// SettleSeconds and MeasureSeconds override the sim backend's virtual
	// measurement windows when positive.
	SettleSeconds  float64
	MeasureSeconds float64
	// NoiseSigma adds lognormal measurement noise (analytic backend).
	NoiseSigma float64
	// Surface, when non-nil, memoizes the analytic backend's deterministic
	// solves (the fleet shares one across its tenants).
	Surface *surface.Cache

	// Addr is the live backend's listen address; empty means an ephemeral
	// localhost port.
	Addr string
	// Interval overrides the live backend's wall-clock measurement interval
	// when positive.
	Interval time.Duration
	// Load carries the live backend's load-generator options. BaseURL is
	// filled in from the started server; a zero Workload inherits
	// Context.Workload and a zero Seed inherits Seed. Set Rate or Schedule to
	// drive the open-loop engine instead of closed-loop browsers.
	Load loadgen.Options
	// Trace, when non-nil, is attached to the live server's admin endpoints
	// and handed to the capacity and fault layers.
	Trace *telemetry.Trace

	// Capacity wraps the backend in the elastic capacity decorator, making
	// the VM level an actuator: lattice CapacityLevel moves (config.WithCapacity)
	// become scale requests, and the saturation analyzer scales between the
	// agent's retrains (the fast path). The decorator sits under the fault
	// layer, so injected faults disturb the capacity controller exactly as
	// they disturb the agent.
	Capacity bool
	// CapacityDelay is the scale-up provisioning delay in measurement
	// intervals (scale-downs always apply on the next interval).
	CapacityDelay int
	// CapacityAnalyzer calibrates saturation detection; the zero value uses
	// capacity.DefaultConfig(2.0).
	CapacityAnalyzer capacity.Config

	// FaultsPath wraps the system in the fault-injection layer with the JSON
	// scenario at this path.
	FaultsPath string
	// Telemetry receives the fault and capacity layers' instruments. The live
	// backend defaults to the server's own registry so everything lands on
	// /metrics.
	Telemetry *telemetry.Registry
}

// Built is Build's result: the System to hand to an agent plus the
// backend-specific artifacts callers need for printing, stats and shutdown.
// Fields are nil when the backend does not produce them.
type Built struct {
	// System is the tuning target: the outermost configured layer.
	System system.System
	// Live, Server and Driver are set for backend "live". The server is
	// started; Close shuts it down.
	Live   *httpd.Live
	Server *httpd.Server
	Driver *loadgen.Driver
	// Addr is the live server's listen address ("host:port").
	Addr string
	// Capacity is the elastic capacity decorator when one was configured.
	Capacity *capacity.System
	// Faulty is the fault-injection layer when one was configured.
	Faulty *faults.System
}

// Close shuts down a live backend's server; the other backends hold nothing
// to release. Safe to call more than once.
func (b *Built) Close(ctx context.Context) error {
	if b.Server == nil {
		return nil
	}
	return b.Server.Shutdown(ctx)
}

// Build constructs the spec's backend, then wraps it as Wrap does.
func Build(spec Spec) (*Built, error) {
	space := spec.Space
	if space == nil {
		space = config.Default()
	}
	initial := spec.Initial
	if initial == nil {
		initial = space.DefaultConfig()
	}

	var base system.System
	var err error
	switch spec.Backend {
	case "", "sim":
		base, err = system.NewSimulated(system.SimulatedOptions{
			Space:          space,
			Initial:        initial,
			Context:        spec.Context,
			Seed:           spec.Seed,
			SettleSeconds:  spec.SettleSeconds,
			MeasureSeconds: spec.MeasureSeconds,
		})
	case "analytic":
		base, err = system.NewAnalytic(system.AnalyticOptions{
			Space:      space,
			Initial:    initial,
			Context:    spec.Context,
			Seed:       spec.Seed,
			NoiseSigma: spec.NoiseSigma,
			Surface:    spec.Surface,
		})
	case "live":
		return buildLive(spec, space, initial)
	default:
		return nil, fmt.Errorf("backend: unknown backend %q (want sim, analytic or live)", spec.Backend)
	}
	if err != nil {
		return nil, err
	}
	return Wrap(base, spec)
}

// buildLive boots the real stack — server, load driver, System adapter — and
// wraps it. Every error after the server starts listening shuts it down again.
func buildLive(spec Spec, space *config.Space, initial config.Config) (_ *Built, err error) {
	params, err := webtier.ParamsFromConfig(space, initial)
	if err != nil {
		return nil, err
	}
	server, err := httpd.NewServer(params, spec.Context.Level)
	if err != nil {
		return nil, err
	}
	listen := spec.Addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	addr, err := server.Start(listen)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = server.Shutdown(context.Background())
		}
	}()
	if spec.Trace != nil {
		server.SetTrace(spec.Trace)
	}

	lo := spec.Load
	lo.BaseURL = "http://" + addr
	if lo.Workload == (tpcw.Workload{}) {
		lo.Workload = spec.Context.Workload
	}
	if lo.Seed == 0 {
		lo.Seed = spec.Seed
	}
	driver, err := loadgen.New(lo)
	if err != nil {
		return nil, err
	}
	driver.SetTelemetry(server.Telemetry())

	live, err := httpd.NewLive(space, server, driver, initial)
	if err != nil {
		return nil, err
	}
	if spec.Interval > 0 {
		live.Interval = spec.Interval
	}
	if spec.Telemetry == nil {
		spec.Telemetry = server.Telemetry()
	}
	built, err := Wrap(live, spec)
	if err != nil {
		return nil, err
	}
	built.Live, built.Server, built.Driver, built.Addr = live, server, driver, addr
	return built, nil
}

// Wrap layers the spec's decorators around base: the capacity decorator
// innermost, the fault layer outermost, so injected apply/measure faults hit
// the capacity controller the same way they hit the agent. With neither
// configured the result's System is base itself.
func Wrap(base system.System, spec Spec) (*Built, error) {
	built := &Built{System: base}
	if spec.Capacity {
		scalable, ok := base.(capacity.Scalable)
		if !ok {
			return nil, fmt.Errorf("backend: %q cannot scale capacity", spec.Backend)
		}
		c, err := capacity.Wrap(scalable, capacity.Options{
			ProvisionDelay: spec.CapacityDelay,
			Analyzer:       spec.CapacityAnalyzer,
			FastPath:       true,
			Telemetry:      spec.Telemetry,
			Trace:          spec.Trace,
		})
		if err != nil {
			return nil, err
		}
		built.Capacity, built.System = c, c
	}
	if spec.FaultsPath != "" {
		sc, err := faults.LoadFile(spec.FaultsPath)
		if err != nil {
			return nil, err
		}
		f, err := faults.New(built.System, faults.Options{
			Scenario:  sc,
			Seed:      spec.Seed,
			Telemetry: spec.Telemetry,
			Trace:     spec.Trace,
		})
		if err != nil {
			return nil, err
		}
		built.Faulty, built.System = f, f
	}
	return built, nil
}
