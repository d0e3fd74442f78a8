package admission

import (
	"sync"

	"github.com/rac-project/rac/internal/tpcw"
)

// Gate is the live server's concurrent front door: a Controller behind a
// mutex, tracking its occupancy. The hot path is one short critical section
// per request boundary (Enter, then Complete and the returned release), so
// rejected requests cost a lock acquisition and nothing else — the fast 503
// path the web tier's semaphore wait cannot provide.
type Gate struct {
	mu        sync.Mutex
	ctrl      *Controller
	occupancy int

	admitted int64
	rejected int64

	// onDecision, when set, receives every epoch decision (outside the hot
	// path's counters but inside the gate lock; keep it cheap).
	onDecision func(Decision)
}

// NewGate wraps a controller for concurrent use.
func NewGate(params Params, epoch EpochConfig) (*Gate, error) {
	ctrl, err := NewController(params, epoch)
	if err != nil {
		return nil, err
	}
	return &Gate{ctrl: ctrl}, nil
}

// OnDecision registers a callback invoked for every epoch decision. Call
// before serving traffic.
func (g *Gate) OnDecision(fn func(Decision)) {
	g.mu.Lock()
	g.onDecision = fn
	g.mu.Unlock()
}

// SetParams swaps the configured caps at runtime (the learning agent's
// reconfiguration path). In-flight requests are unaffected; the new caps
// apply to subsequent arrivals.
func (g *Gate) SetParams(params Params) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ctrl.SetParams(params)
}

// Enabled reports whether the gate is doing anything.
func (g *Gate) Enabled() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ctrl.Params().Enabled()
}

// Enter decides one arrival. When admitted it returns ok=true and a release
// function the caller must invoke exactly once when the request finishes
// (any path — success, error, panic-deferred). When rejected it returns
// ok=false and a nil release; the caller answers 503 and goes no deeper.
// The gate caps total occupancy only, so class does not enter the decision;
// the parameter stays so that existing callers keep compiling.
func (g *Gate) Enter(class tpcw.Class) (release func(), ok bool) {
	g.mu.Lock()
	// Occupancy is tracked even while the gate is disabled, so enabling the
	// caps mid-flight (a live reconfiguration) starts from a true count.
	admit := g.ctrl.Admit(g.occupancy)
	var dec Decision
	var decided bool
	if admit {
		g.occupancy++
		g.admitted++
		dec, decided = g.ctrl.Observe(false)
	} else {
		g.rejected++
		dec, decided = g.ctrl.Observe(true)
	}
	fn := g.onDecision
	g.mu.Unlock()
	if decided && fn != nil {
		fn(dec)
	}
	if !admit {
		return nil, false
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.occupancy--
			g.mu.Unlock()
		})
	}, true
}

// Complete counts the end of one admitted request, with its latency in paper
// seconds, toward the running epoch's verdict (Controller.Complete). Call it
// once per admitted request, beside its release.
func (g *Gate) Complete(rt float64) {
	g.mu.Lock()
	g.ctrl.Complete(rt)
	g.mu.Unlock()
}

// Snapshot is the gate's counter state.
type Snapshot struct {
	Occupancy int
	Admitted  int64
	Rejected  int64
	Scale     float64
	Regime    Regime
	Epochs    int
}

// Snapshot returns the current counters.
func (g *Gate) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Snapshot{
		Occupancy: g.occupancy,
		Admitted:  g.admitted,
		Rejected:  g.rejected,
		Scale:     g.ctrl.Scale(),
		Regime:    g.ctrl.Regime(),
		Epochs:    g.ctrl.Epochs(),
	}
}
