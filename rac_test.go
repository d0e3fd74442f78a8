package rac_test

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"

	"github.com/rac-project/rac"
)

func TestPublicAPISurface(t *testing.T) {
	space := rac.DefaultSpace()
	if space.Len() != 8 {
		t.Fatalf("default space has %d parameters", space.Len())
	}
	if len(rac.Contexts()) != 6 {
		t.Fatal("Table 2 contexts missing")
	}
	if len(rac.FigureIDs()) != 10 {
		t.Fatal("figure ids missing")
	}
	if rac.DefaultOptions().SwitchThreshold != 5 {
		t.Fatal("paper defaults not exposed")
	}
}

func TestEndToEndThroughPublicAPI(t *testing.T) {
	ctx, err := rac.ContextByName("context-2")
	if err != nil {
		t.Fatal(err)
	}
	ctx.Workload.Clients = 150 // smaller population for a fast test

	sys, err := rac.NewSimulatedSystem(rac.SimulatedOptions{
		Context:        ctx,
		Seed:           1,
		SettleSeconds:  5,
		MeasureSeconds: 30,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Policy from the analytic surface.
	analytic, err := rac.NewAnalyticSystem(rac.AnalyticOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := rac.LearnPolicy(ctx.Name, sys.Space(), rac.SystemSampler(analytic),
		rac.InitOptions{CoarseLevels: 3})
	if err != nil {
		t.Fatal(err)
	}

	agent, err := rac.NewAgent(sys, rac.AgentOptions{Policy: policy, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		step, err := agent.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if step.MeanRT <= 0 || step.Iteration != i+1 {
			t.Fatalf("step %+v", step)
		}
	}

	// Baselines construct and run through the same interface.
	for _, mk := range []func() (rac.Tuner, error){
		func() (rac.Tuner, error) { return rac.NewStaticAgent(sys, rac.DefaultOptions()) },
		func() (rac.Tuner, error) { return rac.NewTrialAndErrorAgent(sys, rac.DefaultOptions()) },
		func() (rac.Tuner, error) { return rac.NewHillClimbAgent(sys, rac.DefaultOptions()) },
	} {
		tuner, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tuner.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestContextControlsThroughPublicAPI(t *testing.T) {
	ctx1, _ := rac.ContextByName("context-1")
	ctx1.Workload.Clients = 100
	sys, err := rac.NewSimulatedSystem(rac.SimulatedOptions{
		Context:        ctx1,
		Seed:           3,
		SettleSeconds:  5,
		MeasureSeconds: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx3, _ := rac.ContextByName("context-3")
	ctx3.Workload.Clients = 100
	if err := rac.ApplyContext(sys, ctx3); err != nil {
		t.Fatal(err)
	}
	if sys.AppLevel() != rac.Level3 {
		t.Fatal("context not applied")
	}
}

func TestPolicyPersistenceThroughPublicAPI(t *testing.T) {
	space := rac.DefaultSpace()
	ctx, err := rac.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := rac.NewAnalyticSystem(rac.AnalyticOptions{Space: space, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := rac.LearnPolicy("persist-api", space, rac.SystemSampler(analytic),
		rac.InitOptions{CoarseLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := policy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rac.LoadPolicy(&buf, space)
	if err != nil {
		t.Fatal(err)
	}
	probe := space.DefaultConfig()
	if loaded.PredictRT(probe) != policy.PredictRT(probe) {
		t.Fatal("prediction changed across save/load")
	}
}

// TestBuildSystemReleasesLiveServerOnError: a live build that fails after its
// server started listening — the load options fail validation, or the fault
// scenario does not load — must shut that server down again.
func TestBuildSystemReleasesLiveServerOnError(t *testing.T) {
	for name, spec := range map[string]rac.SystemSpec{
		"bad load rate":          {Load: rac.LoadOptions{Rate: -1}},
		"missing fault scenario": {FaultsPath: filepath.Join(t.TempDir(), "absent.json")},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			spec.Backend, spec.Context, spec.Addr = "live", rac.Contexts()[0], addr
			if _, err := rac.BuildSystem(spec); err == nil {
				t.Fatal("build succeeded")
			}
			ln, err = net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("the failed build left %s bound: %v", addr, err)
			}
			ln.Close()
		})
	}
}
