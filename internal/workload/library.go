package workload

import "fmt"

// The built-in scenario library. Each constructor is the canonical in-code
// form of the matching examples/scenarios/*.json file (a test keeps them
// identical), so experiments can reference library scenarios by name without
// a file path and the shipped JSON stays honest.

// Diurnal is a compressed 24-hour day in five phases: a quiet night, a
// morning ramp through the capacity knee, a long daytime plateau with a
// gentle sinusoidal wave and a mid-afternoon flash crowd, an evening
// wind-down whose traffic drifts from shopping to order-heavy, and a late
// ordering tail. It is the racbench -fig diurnal workload: the plateau sits
// where a mis-sized static configuration violates the SLA every interval but
// a well-adapted one does not.
func Diurnal() Scenario {
	return Scenario{
		Name:            "diurnal",
		Seed:            24,
		IntervalSeconds: 900,
		Phases: []Phase{
			{
				Name:            "night",
				DurationSeconds: 5400,
				Rate:            20,
				Clients:         500,
				Mix:             "shopping",
			},
			{
				Name:            "morning",
				DurationSeconds: 10800,
				Rate:            47,
				Clients:         1200,
				Mix:             "shopping",
				Modulate: []Modulation{
					{Op: OpRamp, From: 0.4, To: 1},
				},
			},
			{
				Name:            "day",
				DurationSeconds: 64800,
				Rate:            47,
				Clients:         1200,
				Mix:             "shopping",
				Modulate: []Modulation{
					{Op: OpSinusoid, PeriodSeconds: 64800, Amplitude: 0.03},
					{Op: OpSpike, AtSeconds: 43200, DurationSeconds: 5400, Factor: 1.05},
				},
			},
			{
				Name:            "evening",
				DurationSeconds: 5400,
				Rate:            46,
				Clients:         1150,
				Mix:             "shopping",
				Modulate: []Modulation{
					{Op: OpRamp, From: 1, To: 0.45},
				},
				MixDrift: &MixDrift{To: "ordering", StartSeconds: 0, EndSeconds: 5400},
			},
			{
				Name:            "late",
				DurationSeconds: 5400,
				Rate:            19,
				Clients:         480,
				Mix:             "ordering",
			},
		},
	}
}

// FlashCrowd is a calm plateau interrupted by a 2.5× ten-minute spike.
func FlashCrowd() Scenario {
	return Scenario{
		Name:            "flashcrowd",
		Seed:            25,
		IntervalSeconds: 300,
		Phases: []Phase{
			{
				Name:            "calm",
				DurationSeconds: 1800,
				Rate:            30,
				Clients:         800,
				Mix:             "shopping",
			},
			{
				Name:            "crowd",
				DurationSeconds: 2400,
				Rate:            30,
				Clients:         800,
				Mix:             "shopping",
				Modulate: []Modulation{
					{Op: OpSpike, AtSeconds: 600, DurationSeconds: 600, Factor: 2.5},
				},
			},
		},
	}
}

// Ramp climbs linearly to 3× load after an idle warmup — the slow build of
// a launch day. Its two phases make it the workload-smoke scenario.
func Ramp() Scenario {
	return Scenario{
		Name:            "ramp",
		Seed:            26,
		IntervalSeconds: 300,
		Phases: []Phase{
			{
				Name:            "idle",
				DurationSeconds: 1200,
				Rate:            15,
				Clients:         400,
				Mix:             "browsing",
			},
			{
				Name:            "climb",
				DurationSeconds: 2400,
				Rate:            15,
				Clients:         400,
				Mix:             "shopping",
				Modulate: []Modulation{
					{Op: OpRamp, From: 1, To: 3},
				},
			},
		},
	}
}

// MixDriftScenario holds load level while the traffic composition slides
// from browse-heavy to order-heavy — a context change with no rate change.
func MixDriftScenario() Scenario {
	return Scenario{
		Name:            "mixdrift",
		Seed:            27,
		IntervalSeconds: 300,
		Phases: []Phase{
			{
				Name:            "browse",
				DurationSeconds: 1200,
				Rate:            35,
				Clients:         900,
				Mix:             "browsing",
			},
			{
				Name:            "drift",
				DurationSeconds: 2400,
				Rate:            35,
				Clients:         900,
				Mix:             "browsing",
				MixDrift:        &MixDrift{To: "ordering"},
			},
		},
	}
}

// Steady is a constant-load control scenario.
func Steady() Scenario {
	return Scenario{
		Name:            "steady",
		Seed:            28,
		IntervalSeconds: 300,
		Phases: []Phase{{
			Name:            "steady",
			DurationSeconds: 3600,
			Rate:            40,
			Clients:         1100,
			Mix:             "shopping",
		}},
	}
}

// Overload is the admission-gate stressor: a calm plateau, then a sustained
// flash crowd that pushes the offered load well past the web tier's capacity
// knee. racbench -fig overload runs it twice — gated and ungated — to show
// the SLO admission gate holding goodput and tail latency where the ungated
// system collapses.
func Overload() Scenario {
	return Scenario{
		Name:            "overload",
		Seed:            29,
		IntervalSeconds: 300,
		Phases: []Phase{
			{
				Name:            "calm",
				DurationSeconds: 1200,
				Rate:            30,
				Clients:         900,
				Mix:             "shopping",
			},
			{
				Name:            "overload",
				DurationSeconds: 1800,
				Rate:            30,
				Clients:         900,
				Mix:             "shopping",
				Modulate: []Modulation{
					{Op: OpSpike, AtSeconds: 300, DurationSeconds: 900, Factor: 2.5},
				},
			},
		},
	}
}

// Resolve returns the scenario arg names: a library scenario ("diurnal",
// "ramp", …) when arg matches one, otherwise the JSON scenario file at that
// path. Every command-line and config surface that accepts a scenario goes
// through this, so the two spellings stay interchangeable.
func Resolve(arg string) (Scenario, error) {
	if sc, ok := Library()[arg]; ok {
		return sc, nil
	}
	sc, err := LoadFile(arg)
	if err != nil {
		return Scenario{}, fmt.Errorf("workload: scenario %q is neither a library name nor a loadable file: %w", arg, err)
	}
	return sc, nil
}

// Library returns the built-in scenarios by name.
func Library() map[string]Scenario {
	return map[string]Scenario{
		"diurnal":    Diurnal(),
		"flashcrowd": FlashCrowd(),
		"mixdrift":   MixDriftScenario(),
		"overload":   Overload(),
		"ramp":       Ramp(),
		"steady":     Steady(),
	}
}
