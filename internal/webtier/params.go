// Package webtier simulates the paper's testbed: a three-tier
// Apache/Tomcat/MySQL website deployed on two VMs (web tier on one, app and
// database tiers on the other), driven by a closed population of TPC-W
// emulated browsers.
//
// The simulation is time-sliced: each tick, admitted requests share the CPU
// of the VM hosting their current stage (with a context-switching efficiency
// loss at high concurrency), database work splits into a CPU part and a disk
// part whose size depends on how much memory is left for the buffer cache,
// and worker/thread pools grow and shrink with the spare-pool rules of
// Apache prefork and Tomcat. These mechanisms jointly reproduce the
// qualitative response-time surface of the paper: every parameter has a
// concave-upward effect (paper Fig. 4), the surface shifts with the traffic
// mix (Fig. 1) and with the VM allocation (Figs. 2-3), and the optimal
// MaxClients falls as the VM gets stronger (§2.2).
package webtier

import (
	"fmt"

	"github.com/rac-project/rac/internal/config"
)

// Params are the eight tunable knobs of paper Table 1 in natural units.
type Params struct {
	// Web tier (Apache).
	MaxClients          int     // concurrent in-flight request cap
	KeepAliveTimeoutSec float64 // how long an idle connection is kept open
	MinSpareServers     int
	MaxSpareServers     int

	// Application tier (Tomcat).
	MaxThreads        int
	SessionTimeoutMin float64 // server-side session expiry, minutes
	MinSpareThreads   int
	MaxSpareThreads   int

	// SLO admission gate in front of the web tier. Both zero (the default)
	// disables the gate entirely — the pre-gate system, byte for byte.
	AdmitConcurrency int // concurrent requests admitted past the gate
	AdmitQueue       int // admitted-but-waiting queue depth
}

// ParamsFromConfig maps a configuration vector over the given space into
// natural-unit parameters. Missing parameters keep the Table 1 defaults, so
// reduced spaces (single-parameter experiments) also work.
func ParamsFromConfig(s *config.Space, c config.Config) (Params, error) {
	if err := s.Validate(c); err != nil {
		return Params{}, err
	}
	p := DefaultParams()
	set := func(param config.Param, dst func(int)) {
		if v, ok := c.Get(s, param); ok {
			dst(v)
		}
	}
	set(config.MaxClients, func(v int) { p.MaxClients = v })
	set(config.KeepAliveTimeout, func(v int) { p.KeepAliveTimeoutSec = float64(v) })
	set(config.MinSpareServers, func(v int) { p.MinSpareServers = v })
	set(config.MaxSpareServers, func(v int) { p.MaxSpareServers = v })
	set(config.MaxThreads, func(v int) { p.MaxThreads = v })
	set(config.SessionTimeout, func(v int) { p.SessionTimeoutMin = float64(v) })
	set(config.MinSpareThreads, func(v int) { p.MinSpareThreads = v })
	set(config.MaxSpareThreads, func(v int) { p.MaxSpareThreads = v })
	set(config.AdmitConcurrency, func(v int) { p.AdmitConcurrency = v })
	set(config.AdmitQueue, func(v int) { p.AdmitQueue = v })
	return p, p.Validate()
}

// DefaultParams returns the Table 1 default configuration in natural units.
func DefaultParams() Params {
	return Params{
		MaxClients:          150,
		KeepAliveTimeoutSec: 15,
		MinSpareServers:     5,
		MaxSpareServers:     15,
		MaxThreads:          200,
		SessionTimeoutMin:   30,
		MinSpareThreads:     5,
		MaxSpareThreads:     50,
	}
}

// maxKeepAliveSec and maxSessionTimeoutMin bound the two timeouts at one
// day, far above the lattice's (21 s, 35 min) and short enough that either,
// turned into a time.Duration, cannot overflow.
const (
	maxKeepAliveSec      = 24 * 60 * 60
	maxSessionTimeoutMin = 24 * 60
)

// Validate checks the parameters are individually sane.
func (p Params) Validate() error {
	if p.MaxClients < 1 {
		return fmt.Errorf("webtier: MaxClients %d < 1", p.MaxClients)
	}
	if !(p.KeepAliveTimeoutSec >= 0 && p.KeepAliveTimeoutSec <= maxKeepAliveSec) {
		return fmt.Errorf("webtier: KeepAliveTimeout %v outside [0, %d] s", p.KeepAliveTimeoutSec, maxKeepAliveSec)
	}
	if p.MinSpareServers < 0 || p.MaxSpareServers < 0 {
		return fmt.Errorf("webtier: negative spare-server bound")
	}
	if p.MaxThreads < 1 {
		return fmt.Errorf("webtier: MaxThreads %d < 1", p.MaxThreads)
	}
	if !(p.SessionTimeoutMin > 0 && p.SessionTimeoutMin <= maxSessionTimeoutMin) {
		return fmt.Errorf("webtier: SessionTimeout %v outside (0, %d] min", p.SessionTimeoutMin, maxSessionTimeoutMin)
	}
	if p.MinSpareThreads < 0 || p.MaxSpareThreads < 0 {
		return fmt.Errorf("webtier: negative spare-thread bound")
	}
	if p.AdmitConcurrency < 0 || p.AdmitQueue < 0 {
		return fmt.Errorf("webtier: negative admission cap")
	}
	return nil
}
