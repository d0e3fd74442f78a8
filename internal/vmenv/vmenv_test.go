package vmenv

import "testing"

func TestPaperLevels(t *testing.T) {
	tests := []struct {
		level Level
		cpus  int
		mem   int
	}{
		{Level1, 4, 4096},
		{Level2, 3, 3072},
		{Level3, 2, 2048},
	}
	for _, tt := range tests {
		if tt.level.VCPUs != tt.cpus || tt.level.MemoryMB != tt.mem {
			t.Errorf("%s = %+v, want %d vCPUs / %d MB", tt.level.Name, tt.level, tt.cpus, tt.mem)
		}
	}
}

func TestLevelsOrderedByCapacity(t *testing.T) {
	ls := Levels()
	if len(ls) != 3 {
		t.Fatalf("got %d levels", len(ls))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].CPUCapacity() >= ls[i-1].CPUCapacity() {
			t.Fatal("levels not in decreasing capacity order")
		}
	}
}

func TestByName(t *testing.T) {
	l, err := ByName("Level-2")
	if err != nil || l != Level2 {
		t.Fatalf("ByName(Level-2) = %+v, %v", l, err)
	}
	if _, err := ByName("Level-9"); err == nil {
		t.Fatal("unknown level found")
	}
}

func TestLevelValid(t *testing.T) {
	if !Level1.Valid() {
		t.Fatal("Level1 invalid")
	}
	if (Level{VCPUs: 0, MemoryMB: 100}).Valid() {
		t.Fatal("zero-CPU level valid")
	}
	if (Level{VCPUs: 1, MemoryMB: 0}).Valid() {
		t.Fatal("zero-memory level valid")
	}
}

func TestVMReallocate(t *testing.T) {
	vm, err := NewVM("appdb", Level1)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Name() != "appdb" || vm.Level() != Level1 {
		t.Fatalf("fresh VM %+v", vm)
	}
	if err := vm.Reallocate(Level3); err != nil {
		t.Fatal(err)
	}
	if vm.Level() != Level3 {
		t.Fatal("reallocation did not take")
	}
	if err := vm.Reallocate(Level{}); err == nil {
		t.Fatal("invalid level accepted")
	}
	if vm.Level() != Level3 {
		t.Fatal("failed reallocation changed the level")
	}
}

func TestNewVMRejectsInvalid(t *testing.T) {
	if _, err := NewVM("x", Level{}); err == nil {
		t.Fatal("invalid level accepted at construction")
	}
}

func TestCPUCapacity(t *testing.T) {
	if Level1.CPUCapacity() != 4 || Level3.CPUCapacity() != 2 {
		t.Fatal("capacity does not match vCPU count")
	}
}

func TestOrdinalRoundTrip(t *testing.T) {
	for n := MinOrdinal; n <= MaxOrdinal; n++ {
		l, err := ByOrdinal(n)
		if err != nil {
			t.Fatal(err)
		}
		if Ordinal(l) != n {
			t.Fatalf("Ordinal(ByOrdinal(%d)) = %d", n, Ordinal(l))
		}
	}
	if Ordinal(Level1) != 3 || Ordinal(Level3) != 1 {
		t.Fatal("ordinals not ranked by capacity")
	}
	if Ordinal(Level{Name: "Level-9"}) != 0 {
		t.Fatal("unknown level has an ordinal")
	}
	if _, err := ByOrdinal(0); err == nil {
		t.Fatal("ordinal 0 accepted")
	}
	if _, err := ByOrdinal(4); err == nil {
		t.Fatal("ordinal 4 accepted")
	}
}

func TestElasticScaleUpDelay(t *testing.T) {
	e, err := NewElastic(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Request(3); err != nil {
		t.Fatal(err)
	}
	// Two delay ticks, then the third tick applies the new level.
	for i := 0; i < 2; i++ {
		if lvl, changed := e.Tick(); changed || lvl != Level3 {
			t.Fatalf("tick %d: level %s changed=%v during provisioning", i, lvl, changed)
		}
	}
	lvl, changed := e.Tick()
	if !changed || lvl != Level1 {
		t.Fatalf("scale-up did not mature: level %s changed=%v", lvl, changed)
	}
	if e.ScaleUps() != 1 || e.ScaleDowns() != 0 {
		t.Fatalf("counters ups=%d downs=%d", e.ScaleUps(), e.ScaleDowns())
	}
	// Cost: two provisioning ticks at ordinal 1, then the maturing tick's
	// interval runs — and is billed — at ordinal 3.
	if e.TotalCost() != 5 {
		t.Fatalf("total cost %d, want 5", e.TotalCost())
	}
}

func TestElasticScaleDownImmediate(t *testing.T) {
	e, err := NewElastic(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Request(1); err != nil {
		t.Fatal(err)
	}
	lvl, changed := e.Tick()
	if !changed || lvl != Level3 {
		t.Fatalf("scale-down not immediate: level %s changed=%v", lvl, changed)
	}
	if e.ScaleDowns() != 1 {
		t.Fatalf("scale-downs %d", e.ScaleDowns())
	}
	// The scale-down interval already runs at the cheaper ordinal.
	if e.TotalCost() != 1 {
		t.Fatalf("total cost %d, want 1", e.TotalCost())
	}
}

func TestElasticRequestCurrentCancelsPending(t *testing.T) {
	e, err := NewElastic(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Request(3); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 3 {
		t.Fatalf("pending %d", e.Pending())
	}
	if err := e.Request(2); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatal("requesting the current ordinal did not cancel the pending one")
	}
	if _, changed := e.Tick(); changed {
		t.Fatal("cancelled request still applied")
	}
	if e.Ordinal() != 2 {
		t.Fatalf("ordinal %d", e.Ordinal())
	}
}

func TestElasticRejectsBadInputs(t *testing.T) {
	if _, err := NewElastic(0, 1); err == nil {
		t.Fatal("ordinal 0 accepted")
	}
	if _, err := NewElastic(1, -1); err == nil {
		t.Fatal("negative delay accepted")
	}
	e, _ := NewElastic(1, 0)
	if err := e.Request(9); err == nil {
		t.Fatal("ordinal 9 accepted")
	}
}

// Name returns the VM's name.
func (v *VM) Name() string { return v.name }
