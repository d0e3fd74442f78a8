// Package vmenv models the virtualized hosting environment of the paper's
// testbed: Xen-style VMs whose CPU and memory allocations change at runtime.
// The paper provisions the VM hosting the application and database tiers at
// three levels (§2.2); reallocation shifts the whole response-time surface
// and is one of the two dynamics the RAC agent must adapt to.
package vmenv

import "fmt"

// Level is a VM resource allocation: virtual CPUs and memory.
type Level struct {
	Name     string
	VCPUs    int
	MemoryMB int
}

// The paper's three provisioning levels (§2.2): Level-1 (4 vCPU, 4 GB),
// Level-2 (3 vCPU, 3 GB), Level-3 (2 vCPU, 2 GB).
var (
	Level1 = Level{Name: "Level-1", VCPUs: 4, MemoryMB: 4096}
	Level2 = Level{Name: "Level-2", VCPUs: 3, MemoryMB: 3072}
	Level3 = Level{Name: "Level-3", VCPUs: 2, MemoryMB: 2048}
)

// Levels returns the paper's three levels in decreasing capacity order.
func Levels() []Level { return []Level{Level1, Level2, Level3} }

// ByName returns the level with the given name.
func ByName(name string) (Level, error) {
	for _, l := range Levels() {
		if l.Name == name {
			return l, nil
		}
	}
	return Level{}, fmt.Errorf("vmenv: unknown level %q", name)
}

// String returns the level name.
func (l Level) String() string { return l.Name }

// CPUCapacity returns the level's aggregate processing capacity in work
// units per second, where one work unit is one second of a single reference
// vCPU. A Level-1 VM therefore processes 4 units/s.
func (l Level) CPUCapacity() float64 { return float64(l.VCPUs) }

// Valid reports whether the level describes a usable VM.
func (l Level) Valid() bool { return l.VCPUs > 0 && l.MemoryMB > 0 }

// Capacity ordinals rank the paper's levels by size so a lattice parameter
// can express "more capacity" as a larger integer: 1 = Level-3 (smallest),
// 3 = Level-1 (largest).
const (
	MinOrdinal = 1
	MaxOrdinal = 3
)

// Ordinal returns the level's capacity rank (MinOrdinal..MaxOrdinal), or 0
// for an unknown level.
func Ordinal(l Level) int {
	switch l.Name {
	case Level3.Name:
		return 1
	case Level2.Name:
		return 2
	case Level1.Name:
		return 3
	default:
		return 0
	}
}

// ByOrdinal returns the level with the given capacity rank.
func ByOrdinal(n int) (Level, error) {
	switch n {
	case 1:
		return Level3, nil
	case 2:
		return Level2, nil
	case 3:
		return Level1, nil
	default:
		return Level{}, fmt.Errorf("vmenv: ordinal %d outside [%d,%d]", n, MinOrdinal, MaxOrdinal)
	}
}

// Elastic is the programmatic scale interface over the three provisioning
// levels: it holds the level currently in effect, a pending request that
// matures after a provisioning delay, and the cumulative capacity cost.
//
// Scale-ups take ProvisionDelay ticks to come online (booting a bigger VM is
// slow); scale-downs apply on the next tick (releasing capacity is
// immediate). One Tick per measurement interval accrues cost equal to the
// ordinal in effect, so cost units are VM-level·intervals. Elastic is pure
// bookkeeping — no clock, no RNG — so any driver stays deterministic.
type Elastic struct {
	current int // ordinal in effect
	pending int // requested ordinal not yet in effect (0 = none)
	wait    int // ticks remaining until pending matures
	delay   int // provisioning delay for scale-ups, in ticks

	totalCost  int
	scaleUps   int
	scaleDowns int
}

// NewElastic returns a scaler starting at the given ordinal with the given
// scale-up provisioning delay in ticks (0 = next tick).
func NewElastic(initial, provisionDelay int) (*Elastic, error) {
	if _, err := ByOrdinal(initial); err != nil {
		return nil, err
	}
	if provisionDelay < 0 {
		return nil, fmt.Errorf("vmenv: negative provision delay %d", provisionDelay)
	}
	return &Elastic{current: initial, delay: provisionDelay}, nil
}

// Request asks for the given ordinal. Requesting the current (or already
// pending) ordinal is a no-op; a new target replaces any pending one, with
// the provisioning delay charged only in the scale-up direction.
func (e *Elastic) Request(ordinal int) error {
	if _, err := ByOrdinal(ordinal); err != nil {
		return err
	}
	if ordinal == e.current {
		e.pending = 0
		e.wait = 0
		return nil
	}
	if ordinal == e.pending {
		return nil
	}
	e.pending = ordinal
	if ordinal > e.current {
		e.wait = e.delay
	} else {
		e.wait = 0
	}
	return nil
}

// Snap forces the given ordinal into effect immediately, clearing any
// pending request. The cumulative cost and scale counters are preserved — a
// driver override or fault-injected reallocation is not a billing reset.
func (e *Elastic) Snap(ordinal int) error {
	if _, err := ByOrdinal(ordinal); err != nil {
		return err
	}
	e.current = ordinal
	e.pending = 0
	e.wait = 0
	return nil
}

// RestoreAccounting overwrites the cumulative cost and scale counters with
// checkpointed values. Checkpoint restore only.
func (e *Elastic) RestoreAccounting(totalCost, scaleUps, scaleDowns int) {
	e.totalCost = totalCost
	e.scaleUps = scaleUps
	e.scaleDowns = scaleDowns
}

// Tick advances one measurement interval: a matured pending request takes
// effect first, then the interval's capacity cost accrues at the level now
// in force — the interval starting at this tick runs, and is billed, at the
// new level. It returns the level in effect and whether the tick changed it.
func (e *Elastic) Tick() (Level, bool) {
	changed := false
	if e.pending != 0 {
		if e.wait > 0 {
			e.wait--
		} else {
			if e.pending > e.current {
				e.scaleUps++
			} else {
				e.scaleDowns++
			}
			e.current = e.pending
			e.pending = 0
			changed = true
		}
	}
	e.totalCost += e.current
	lvl, _ := ByOrdinal(e.current)
	return lvl, changed
}

// Ordinal returns the capacity rank currently in effect.
func (e *Elastic) Ordinal() int { return e.current }

// Pending returns the requested-but-not-yet-effective ordinal (0 = none).
func (e *Elastic) Pending() int { return e.pending }

// Level returns the level currently in effect.
func (e *Elastic) Level() Level {
	lvl, _ := ByOrdinal(e.current)
	return lvl
}

// TotalCost returns the cumulative capacity cost in VM-level·intervals.
func (e *Elastic) TotalCost() int { return e.totalCost }

// ScaleUps returns how many scale-ups have taken effect.
func (e *Elastic) ScaleUps() int { return e.scaleUps }

// ScaleDowns returns how many scale-downs have taken effect.
func (e *Elastic) ScaleDowns() int { return e.scaleDowns }

// VM is a virtual machine with a mutable resource allocation. It models the
// driver-domain view: the hosted tiers read capacity and memory from it each
// simulation tick, so a reallocation takes effect immediately, exactly like a
// Xen credit-scheduler or balloon adjustment.
type VM struct {
	name  string
	level Level
}

// NewVM returns a VM with the given initial allocation.
func NewVM(name string, level Level) (*VM, error) {
	if !level.Valid() {
		return nil, fmt.Errorf("vmenv: invalid level %+v", level)
	}
	return &VM{name: name, level: level}, nil
}

// Level returns the current allocation.
func (v *VM) Level() Level { return v.level }

// Reallocate changes the VM's resource allocation.
func (v *VM) Reallocate(level Level) error {
	if !level.Valid() {
		return fmt.Errorf("vmenv: invalid level %+v", level)
	}
	v.level = level
	return nil
}
