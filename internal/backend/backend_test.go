package backend

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
)

const faultsPath = "../../examples/faults_basic.json"

// TestBuildLayers builds every backend × capacity × faults combination and
// checks the decorator order and that the backend's control surfaces reach
// through the stack.
func TestBuildLayers(t *testing.T) {
	ctx := system.Table2()[3]
	for _, kind := range []string{"sim", "analytic"} {
		for _, capOn := range []bool{false, true} {
			for _, faultsOn := range []bool{false, true} {
				spec := Spec{Backend: kind, Context: ctx, Seed: 3, Capacity: capOn}
				if faultsOn {
					spec.FaultsPath = faultsPath
				}
				t.Run(fmt.Sprintf("%s/capacity=%v/faults=%v", kind, capOn, faultsOn), func(t *testing.T) {
					b, err := Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					if (b.Capacity != nil) != capOn || (b.Faulty != nil) != faultsOn {
						t.Fatalf("layers: capacity %v faults %v", b.Capacity != nil, b.Faulty != nil)
					}
					base := b.System
					switch {
					case faultsOn:
						if b.System != b.Faulty {
							t.Fatal("fault layer is not outermost")
						}
						base = b.Faulty.Inner()
						if capOn && base != b.Capacity {
							t.Fatal("fault layer does not wrap the capacity decorator")
						}
					case capOn:
						if b.System != b.Capacity {
							t.Fatal("capacity decorator is not outermost")
						}
					}
					if capOn {
						base = b.Capacity.Inner()
					}

					w := tpcw.Workload{Mix: tpcw.Browsing, Clients: 77}
					if err := b.System.(system.Adjustable).SetWorkload(w); err != nil {
						t.Fatal(err)
					}
					if got := base.(system.Adjustable).Workload(); got != w {
						t.Fatalf("workload through the stack: base runs %v, want %v", got, w)
					}

					snap, ok := b.System.(system.Snapshottable)
					if want := kind == "analytic" || capOn || faultsOn; ok != want {
						t.Fatalf("Snapshottable = %v, want %v", ok, want)
					}
					if ok {
						blob, err := snap.ExportState()
						if err != nil {
							t.Fatal(err)
						}
						if err := snap.ImportState(blob); err != nil {
							t.Fatal(err)
						}
					}
					if err := b.Close(context.Background()); err != nil {
						t.Fatalf("Close on a %s backend: %v", kind, err)
					}
				})
			}
		}
	}
}

func TestBuildUnknownBackend(t *testing.T) {
	_, err := Build(Spec{Backend: "vmware"})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, want := range []string{`"vmware"`, "sim", "analytic", "live"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
