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
