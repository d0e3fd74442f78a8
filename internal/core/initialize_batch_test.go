package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
)

// batchTestSample is a synthetic surface that consumes one draw from the
// sample's RNG stream, so the test catches a dispatcher that mis-threads
// streams through chunk boundaries.
func batchTestSample(space *config.Space, cfg config.Config, rng *sim.RNG) float64 {
	groups, _ := space.Grouping()
	vec := groups.AppendMeans(nil, cfg)
	rt := 0.3
	for i, v := range vec {
		d := (v - 100*float64(i+1)) / 150
		rt += d * d
	}
	// Deterministic per-stream jitter: same stream → same draw → same value.
	return rt + float64(rng.Uint64()%97)/1e4
}

// learnPolicy trains through LearnPolicyStream with a sampler that draws no
// randomness, the shape of most tests' synthetic surfaces. A nil sample stays
// nil, so the nil-sampler check is reachable.
func learnPolicy(name string, space *config.Space, sample func(config.Config) (float64, error), opts InitOptions) (*Policy, error) {
	var stream StreamSampler
	if sample != nil {
		stream = func(cfg config.Config, _ *sim.RNG) (float64, error) { return sample(cfg) }
	}
	return LearnPolicyStream(name, space, stream, opts)
}

func learnedPolicyBytes(t *testing.T, space *config.Space, batch bool, procs int) []byte {
	t.Helper()
	opts := InitOptions{CoarseLevels: 3, Seed: 11, Procs: procs}
	var sampler StreamSampler
	if batch {
		opts.BatchSampler = func(cfgs []config.Config, streams []*sim.RNG, out []float64) error {
			for i, cfg := range cfgs {
				out[i] = batchTestSample(space, cfg, streams[i])
			}
			return nil
		}
	} else {
		sampler = func(cfg config.Config, rng *sim.RNG) (float64, error) {
			return batchTestSample(space, cfg, rng), nil
		}
	}
	p, err := LearnPolicyStream("batch-ctx", space, sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLearnPolicyBatchMatchesStream pins the BatchSampler contract: chunked
// dispatch must produce a policy byte-identical to per-configuration
// sampling, at any worker count.
func TestLearnPolicyBatchMatchesStream(t *testing.T) {
	space := config.Default()
	want := learnedPolicyBytes(t, space, false, 1)
	for _, procs := range []int{1, 8} {
		if got := learnedPolicyBytes(t, space, true, procs); !bytes.Equal(got, want) {
			t.Errorf("batch-sampled policy (Procs=%d) differs from stream-sampled", procs)
		}
	}
	// The stream path itself must also be procs-independent.
	if got := learnedPolicyBytes(t, space, false, 8); !bytes.Equal(got, want) {
		t.Error("stream-sampled policy differs across worker counts")
	}
}

// TestLearnPolicyBatchErrors covers the batch dispatcher's error paths: a
// failing chunk surfaces with its range, neither sampler is rejected, and so
// are both at once.
func TestLearnPolicyBatchErrors(t *testing.T) {
	space := config.Default()
	boom := errors.New("boom")
	_, err := LearnPolicyStream("x", space, nil, InitOptions{
		CoarseLevels: 3, Seed: 1,
		BatchSampler: func(cfgs []config.Config, _ []*sim.RNG, _ []float64) error {
			return boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("chunk error not surfaced: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("error %v does not identify the chunk", err)
	}

	if _, err := LearnPolicyStream("x", space, nil, InitOptions{CoarseLevels: 3}); err == nil {
		t.Fatal("nil sampler and nil batch sampler accepted")
	}

	flat := func(config.Config, *sim.RNG) (float64, error) { return 1, nil }
	_, err = LearnPolicyStream("x", space, flat, InitOptions{
		CoarseLevels: 3,
		BatchSampler: func(_ []config.Config, _ []*sim.RNG, out []float64) error {
			for i := range out {
				out[i] = 1
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("a StreamSampler and a BatchSampler both accepted")
	}
}

// TestLearnPolicyRefusesOversizedSweep: a coarse sweep larger than the group
// lattice — k = 11 is 14 641 points on the default space's 10 692 states,
// and k = 65 536 wraps k^4 to 0 in int arithmetic — is refused with the
// bound before anything is sampled.
func TestLearnPolicyRefusesOversizedSweep(t *testing.T) {
	for _, k := range []int{11, 65536} {
		_, err := LearnPolicyStream("x", config.Default(), nil, InitOptions{
			CoarseLevels: k,
			BatchSampler: func([]config.Config, []*sim.RNG, []float64) error {
				t.Fatalf("k=%d sampled", k)
				return nil
			},
		})
		if err == nil || !strings.Contains(err.Error(), "at most 10") {
			t.Errorf("k=%d: error %v, want one naming the bound of 10", k, err)
		}
	}
}

// TestLearnPolicyProcsInvariant: the whole of Algorithm 2 — the coarse sweep,
// the reward pass split into one ordinal range per worker, and the solve into
// the slab — saves the same bytes and converges the same way at any worker
// count, on two Table-2 contexts over the analytic surface.
func TestLearnPolicyProcsInvariant(t *testing.T) {
	space := config.Default()
	for _, name := range []string{"context-1", "context-3"} {
		ctx, err := system.ContextByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		var wantTraining mdp.BatchResult
		for _, procs := range []int{1, 2, 7} {
			p, err := LearnPolicyStream(name, space, nil, InitOptions{
				Procs: procs, BatchSampler: system.AnalyticSampler(space, ctx, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				want, wantTraining = buf.Bytes(), p.Training()
				continue
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s: policy trained at Procs=%d saves different bytes than at Procs=1", name, procs)
			}
			if p.Training() != wantTraining {
				t.Errorf("%s: Procs=%d training %+v, Procs=1 %+v", name, procs, p.Training(), wantTraining)
			}
		}
	}
}
