package admission

import (
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/tpcw"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{MaxConcurrent: -1}).Validate(); err == nil {
		t.Error("negative concurrency cap accepted")
	}
	if err := (Params{MaxQueue: -1}).Validate(); err == nil {
		t.Error("negative queue cap accepted")
	}
	if err := (Params{MaxConcurrent: 100, MaxQueue: 50}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if (Params{}).Enabled() {
		t.Error("zero params report enabled")
	}
}

func TestEpochValidate(t *testing.T) {
	if err := DefaultEpoch().Validate(); err != nil {
		t.Fatalf("default epoch invalid: %v", err)
	}
	if err := (EpochConfig{Size: -1}).Validate(); err == nil {
		t.Error("negative epoch size accepted")
	}
}

// TestControllerDisabled checks the zero-cap controller admits everything and
// never decides.
func TestControllerDisabled(t *testing.T) {
	c, err := NewController(Params{}, DefaultEpoch())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if !c.Admit(1_000_000) {
			t.Fatal("disabled gate rejected")
		}
		if _, decided := c.Observe(false); decided {
			t.Fatal("disabled gate made an epoch decision")
		}
	}
}

// TestControllerRegimes drives the epoch loop through spread and exploit and
// checks the scale walks as specified.
func TestControllerRegimes(t *testing.T) {
	c, err := NewController(Params{MaxConcurrent: 100, MaxQueue: 50}, EpochWith(10))
	if err != nil {
		t.Fatal(err)
	}

	// Epoch of 50% rejections → spread, scale down.
	var dec Decision
	var decided bool
	for i := 0; i < 10; i++ {
		dec, decided = c.Observe(i%2 == 0)
	}
	if !decided {
		t.Fatal("no decision at epoch boundary")
	}
	if dec.Regime != RegimeSpread || dec.Scale >= 1 {
		t.Fatalf("overloaded epoch: got %+v, want spread with scale < 1", dec)
	}
	conc, queue := c.Limits()
	if conc != 90 || queue != 45 {
		t.Fatalf("scaled limits = (%d,%d), want (90,45)", conc, queue)
	}

	// Clean epoch → exploit, scale back up.
	for i := 0; i < 10; i++ {
		dec, decided = c.Observe(false)
	}
	if !decided || dec.Regime != RegimeExploit || dec.Scale != 1.0 {
		t.Fatalf("clean epoch: got %+v, want exploit back to scale 1", dec)
	}

	// 5% rejections sits between the thresholds → hold.
	for i := 0; i < 10; i++ {
		dec, decided = c.Observe(i == 0)
	}
	if !decided || dec.Regime != RegimeHold || dec.Scale != 1.0 {
		t.Fatalf("mid epoch: got %+v, want hold at scale 1", dec)
	}

	// Scale clamps at minScale under sustained overload…
	for e := 0; e < 20; e++ {
		for i := 0; i < 10; i++ {
			dec, _ = c.Observe(true)
		}
	}
	if dec.Scale != minScale {
		t.Fatalf("sustained overload scale = %g, want clamp at %g", dec.Scale, minScale)
	}
	// …and at maxScale under sustained headroom.
	for e := 0; e < 20; e++ {
		for i := 0; i < 10; i++ {
			dec, _ = c.Observe(false)
		}
	}
	if dec.Scale != maxScale {
		t.Fatalf("sustained headroom scale = %g, want clamp at %g", dec.Scale, maxScale)
	}
}

// TestControllerDeterminism replays an outcome sequence and checks decisions
// are a pure function of counts — the contract the simulator's byte-identical
// replays rest on.
func TestControllerDeterminism(t *testing.T) {
	outcomes := make([]bool, 997)
	for i := range outcomes {
		outcomes[i] = i%7 == 0 || i%13 == 0
	}
	run := func() []Decision {
		c, err := NewController(Params{MaxConcurrent: 200, MaxQueue: 100}, EpochWith(100))
		if err != nil {
			t.Fatal(err)
		}
		var decs []Decision
		for _, rej := range outcomes {
			if d, ok := c.Observe(rej); ok {
				decs = append(decs, d)
			}
		}
		return decs
	}
	a, b := run(), run()
	if len(a) != len(outcomes)/100 {
		t.Fatalf("expected %d decisions, got %d", len(outcomes)/100, len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical replays: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestControllerAdmit covers the cap arithmetic.
func TestControllerAdmit(t *testing.T) {
	c, err := NewController(Params{MaxConcurrent: 4, MaxQueue: 2}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Admit(5) {
		t.Error("occupancy below capacity rejected")
	}
	if c.Admit(6) {
		t.Error("occupancy at capacity admitted")
	}
}

// TestGateConcurrent hammers the gate from many goroutines; run under -race
// this is the admission data-race check. It also verifies occupancy returns
// to zero and admitted+rejected accounts every arrival.
func TestGateConcurrent(t *testing.T) {
	g, err := NewGate(Params{MaxConcurrent: 8, MaxQueue: 4}, EpochWith(50))
	if err != nil {
		t.Fatal(err)
	}
	var decisions sync.Map
	g.OnDecision(func(d Decision) { decisions.Store(d.Epoch, d) })

	const workers = 32
	const perWorker = 500
	classes := tpcw.Classes()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				release, ok := g.Enter(classes[(w+i)%len(classes)])
				if !ok {
					continue
				}
				release()
				release() // double release must be a no-op
			}
		}(w)
	}
	wg.Wait()

	snap := g.Snapshot()
	if snap.Occupancy != 0 {
		t.Errorf("occupancy %d after all releases, want 0", snap.Occupancy)
	}
	if got := snap.Admitted + snap.Rejected; got != workers*perWorker {
		t.Errorf("admitted+rejected = %d, want %d", got, workers*perWorker)
	}
	if snap.Epochs != int(snap.Admitted+snap.Rejected)/50 {
		t.Errorf("epochs = %d, want %d", snap.Epochs, (snap.Admitted+snap.Rejected)/50)
	}
}

// TestGateCapEnforced checks a full gate rejects and frees up on release.
func TestGateCapEnforced(t *testing.T) {
	g, err := NewGate(Params{MaxConcurrent: 2, MaxQueue: 1}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var releases []func()
	for i := 0; i < 3; i++ {
		release, ok := g.Enter(tpcw.ClassHome)
		if !ok {
			t.Fatalf("arrival %d rejected below capacity", i)
		}
		releases = append(releases, release)
	}
	if _, ok := g.Enter(tpcw.ClassHome); ok {
		t.Fatal("arrival past capacity admitted")
	}
	releases[0]()
	release, ok := g.Enter(tpcw.ClassHome)
	if !ok {
		t.Fatal("arrival after release rejected")
	}
	release()
	for _, r := range releases[1:] {
		r()
	}
	if snap := g.Snapshot(); snap.Occupancy != 0 || snap.Rejected != 1 {
		t.Fatalf("snapshot %+v, want occupancy 0 and exactly 1 rejection", snap)
	}
}

// TestGateDisabledTracksOccupancy checks occupancy is counted while disabled,
// so enabling caps via SetParams starts from the true in-flight count.
func TestGateDisabledTracksOccupancy(t *testing.T) {
	g, err := NewGate(Params{}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var releases []func()
	for i := 0; i < 5; i++ {
		release, ok := g.Enter(tpcw.ClassHome)
		if !ok {
			t.Fatal("disabled gate rejected")
		}
		releases = append(releases, release)
	}
	if err := g.SetParams(Params{MaxConcurrent: 3, MaxQueue: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Enter(tpcw.ClassHome); ok {
		t.Fatal("gate admitted past capacity after enabling caps mid-flight")
	}
	for _, r := range releases {
		r()
	}
	if snap := g.Snapshot(); snap.Occupancy != 0 {
		t.Fatalf("occupancy %d, want 0", snap.Occupancy)
	}
}

// runEpochs drives the controller through epochs of 100 outcomes: refused
// of them rejected, the rest admitted and completed with the latency rt
// returns for the i-th admitted request of the epoch. It returns every
// decision.
func runEpochs(c *Controller, epochs, refused int, rt func(i int) float64) []Decision {
	var decs []Decision
	for e := 0; e < epochs; e++ {
		for i := 0; i < 100; i++ {
			rejected := i < refused
			if !rejected {
				c.Complete(rt(i - refused))
			}
			if d, ok := c.Observe(rejected); ok {
				decs = append(decs, d)
			}
		}
	}
	return decs
}

// TestControllerHeadroomOpens is the metastable-gate case: sustained demand
// above the cap keeps the refusals far over highThreshold, but the admitted
// work finishes well inside the SLA. The gate must open to its maximum and
// stay there rather than tighten against a server with headroom.
func TestControllerHeadroomOpens(t *testing.T) {
	c, err := NewController(Params{MaxConcurrent: 100, MaxQueue: 50}, EpochWith(100))
	if err != nil {
		t.Fatal(err)
	}
	decs := runEpochs(c, 20, 65, func(i int) float64 {
		return headroomSeconds * float64(i%8) / 7 // up to SLA/4, never over
	})
	for i, d := range decs {
		if d.Regime != RegimeExploit || d.RejectRate != 0.65 || d.LateShare != 0 || d.SlowShare != 0 {
			t.Fatalf("epoch %d: %+v, want exploit at reject rate 0.65 with no slow work", i+1, d)
		}
	}
	if got := decs[len(decs)-1].Scale; got != maxScale {
		t.Fatalf("scale after 20 epochs with headroom = %g, want %g", got, maxScale)
	}
	if conc, queue := c.Limits(); conc != 150 || queue != 75 {
		t.Fatalf("limits = (%d,%d), want (150,75)", conc, queue)
	}
}

// TestControllerLateSpreads: more than highThreshold of the completions over
// the SLA tightens the gate even with no refusals at all.
func TestControllerLateSpreads(t *testing.T) {
	c, err := NewController(Params{MaxConcurrent: 100, MaxQueue: 50}, EpochWith(100))
	if err != nil {
		t.Fatal(err)
	}
	decs := runEpochs(c, 20, 0, func(i int) float64 {
		if i%10 < 2 {
			return slaSeconds + 0.5 // 20 % late
		}
		return 0.1
	})
	for i, d := range decs {
		if d.Regime != RegimeSpread || d.LateShare != 0.2 || d.SlowShare != 0.2 || d.RejectRate != 0 {
			t.Fatalf("epoch %d: %+v, want spread on a 0.2 late share", i+1, d)
		}
	}
	if got := c.Scale(); got != minScale {
		t.Fatalf("scale = %g, want %g", got, minScale)
	}
}

// TestControllerSlowRefusalsSpread: refusals over highThreshold with admitted
// work that is slow but not late (no headroom) still tighten the gate, and
// the same slow work with few refusals holds.
func TestControllerSlowRefusalsSpread(t *testing.T) {
	slow := func(i int) float64 {
		if i%10 == 0 {
			return 1.5 // over SLA/4, inside the SLA: 10 % slow, none late
		}
		return 0.1
	}
	c, err := NewController(Params{MaxConcurrent: 100, MaxQueue: 50}, EpochWith(100))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range runEpochs(c, 20, 65, slow) {
		if d.Regime != RegimeSpread || d.LateShare != 0 || d.SlowShare < lowThreshold {
			t.Fatalf("epoch %d: %+v, want spread on refusals without headroom", i+1, d)
		}
	}
	if got := c.Scale(); got != minScale {
		t.Fatalf("scale = %g, want %g", got, minScale)
	}
	for i, d := range runEpochs(c, 3, 5, slow) {
		if d.Regime != RegimeHold || d.Scale != minScale {
			t.Fatalf("epoch %d: %+v, want hold between the thresholds", i+1, d)
		}
	}
}

// TestControllerDisabledCountsNoCompletions: completions reported while the
// gate is disabled leave nothing behind for the first epoch once it is on.
func TestControllerDisabledCountsNoCompletions(t *testing.T) {
	c, err := NewController(Params{}, EpochWith(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Complete(slaSeconds * 10)
	}
	if err := c.SetParams(Params{MaxConcurrent: 10}); err != nil {
		t.Fatal(err)
	}
	var dec Decision
	for i := 0; i < 10; i++ {
		dec, _ = c.Observe(false)
	}
	if dec.Regime != RegimeExploit || dec.LateShare != 0 {
		t.Fatalf("first enabled epoch %+v, want exploit with no late share", dec)
	}
}

// TestGateConcurrentComplete races Enter, Complete and release from many
// goroutines (the admission data-race check under -race) with work that
// always has headroom: the gate must end open, not tightened.
func TestGateConcurrentComplete(t *testing.T) {
	g, err := NewGate(Params{MaxConcurrent: 4, MaxQueue: 2}, EpochWith(50))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 32
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				release, ok := g.Enter(tpcw.ClassHome)
				if !ok {
					continue
				}
				g.Complete(headroomSeconds / 2)
				release()
			}
		}(w)
	}
	wg.Wait()
	snap := g.Snapshot()
	if snap.Occupancy != 0 {
		t.Errorf("occupancy %d after all releases, want 0", snap.Occupancy)
	}
	if got := snap.Admitted + snap.Rejected; got != workers*perWorker {
		t.Errorf("admitted+rejected = %d, want %d", got, workers*perWorker)
	}
	if snap.Scale < 1 {
		t.Errorf("gate with headroom ended at scale %g, want ≥ 1", snap.Scale)
	}
}
