package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
)

// TestPolicyRowsMatchSolve: every row a trained policy derives from its two
// value vectors is, bit for bit, the row of the slab solveSlab computes from
// zeros over the same training MDP, and the policy's digest is the SHA-256
// of that slab (then the coefficients, floor and SLA) as the slab's bits —
// for the six Table-2 contexts over the analytic surface, at sweep bounds
// whose last sweep runs forward (1, 3, and the converged solve under 400)
// and backward (2, 30). Saved, each policy loads back to the same bytes and
// digest; its first-format document loads only under the default schedule,
// the one such a document is solved under.
func TestPolicyRowsMatchSolve(t *testing.T) {
	space := config.Default()
	for _, ctx := range system.Table2() {
		surf := surface.New(nil) // the five trainings of a context sample it once
		for _, sweeps := range []int{1, 2, 3, 30, 400} {
			batch := DefaultOfflineBatch()
			batch.MaxSweeps = sweeps
			if sweeps < 400 {
				batch.Theta = 0 // run exactly the bound
			}
			p, err := LearnPolicyStream(ctx.Name, space, nil,
				InitOptions{Batch: batch, BatchSampler: system.AnalyticSampler(space, ctx, surf)})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/sweeps=%d", ctx.Name, sweeps)
			st, rewards := p.trainingMDP(parallel.Options{Procs: 1})
			q := make([]float64, st.Len()*st.Actions())
			if res := solveSlab(q, st, rewards, batch); res != p.Training() {
				t.Fatalf("%s: the policy's solve reports %+v, the slab oracle's %+v", name, p.Training(), res)
			}
			a := st.Actions()
			var row []float64
			for ord := range st.Len() {
				row = p.rowAt(row[:0], ord)
				for i, v := range row {
					if want := q[ord*a+i]; math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s: state %s action %d reads %v, the solved slab holds %v",
							name, st.States()[ord], i, v, want)
					}
				}
			}
			h := sha256.New()
			for _, vs := range [][]float64{q, p.quad.Coeffs(), {p.floorRT, p.sla}} {
				binary.Write(h, binary.LittleEndian, vs)
			}
			if got, want := p.Digest(), hex.EncodeToString(h.Sum(nil)); got != want {
				t.Fatalf("%s: digest %s, the slab's %s", name, got, want)
			}
			if sweeps == 2 || sweeps == 400 {
				if !checkLoadRoundTrip(t, saveBytes(t, p), space) {
					t.Fatalf("%s: a saved policy does not load", name)
				}
				if _, err := LoadPolicy(bytes.NewReader(firstFormat(t, p)), space); (err == nil) != (batch == DefaultOfflineBatch()) {
					t.Fatalf("%s: its first-format document loads with error %v", name, err)
				}
			}
		}
	}
}

// solveSlab is mdp.Solve over a whole structure as it ran before it swept
// state values, from a slab q of zeros: Gauss–Seidel in place over q, every
// feasible entry compared against, then set to, the current value of the
// state it leads to, sweeps alternating index order and its reverse. It is
// the oracle mdp's tests keep as solveSlab in batch_test.go, restated over
// the exported Structure because test files do not cross packages.
func solveSlab(q []float64, st *mdp.Structure, rewards []float64, cfg mdp.BatchConfig) mdp.BatchResult {
	n, actions := st.Len(), st.Actions()
	gamma, eps := cfg.Params.Gamma, cfg.Params.Epsilon
	val := make([]float64, n)
	backup := func(s int) float64 { // over s's row, feasible entries in action order
		var best, sum float64
		k := 0
		for a := range actions {
			if nextOf(st, s, a) < 0 {
				continue
			}
			v := q[s*actions+a]
			sum += v
			if k == 0 || v > best {
				best = v
			}
			k++
		}
		return float64((1-eps)*best + eps*sum/float64(k))
	}
	for s := range n {
		val[s] = rewards[s] + gamma*backup(s)
	}
	var res mdp.BatchResult
	for sweep := 0; sweep < max(cfg.MaxSweeps, 1); sweep++ {
		var maxErr float64
		for i := range n {
			s := i
			if sweep%2 == 1 {
				s = n - 1 - i
			}
			for a := range actions {
				if to := nextOf(st, s, a); to >= 0 {
					if d := math.Abs(val[to] - q[s*actions+a]); d > maxErr {
						maxErr = d
					}
					q[s*actions+a] = val[to]
				}
			}
			val[s] = rewards[s] + gamma*backup(s)
		}
		res.Sweeps, res.FinalErr = sweep+1, maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}
	return res
}

// nonSolveTables returns p's saved document with its table damaged in two
// ways no solve from zeros produces, each with the state it damaged: one
// entry moved off the value the earlier entries reading the same state hold
// (the last one read, by ordinal, of an interior state's), and a nonzero
// infeasible entry (the first group's decrease at the lattice's lowest
// corner).
func nonSolveTables(tb testing.TB, p *Policy, saved []byte) (docs [][]byte, states []string) {
	tb.Helper()
	keys, a := p.lattice.States(), p.lattice.Actions()
	interior := -1
	for s := range keys {
		inside := true
		for act := range a {
			inside = inside && nextOf(p.lattice, s, act) >= 0
		}
		if inside {
			interior = s
			break
		}
	}
	if interior < 0 || nextOf(p.lattice, 0, 2) >= 0 {
		tb.Fatal("the lattice has no interior state, or its lowest corner can decrease")
	}
	last, lastAct := interior, 0
	for act := range a {
		if r := nextOf(p.lattice, interior, act); r > last {
			last = r
		}
	}
	for act := range a {
		if nextOf(p.lattice, last, act) == interior {
			lastAct = act
		}
	}
	edit := func(ord, act int, to func(float64) float64) []byte {
		return reencodeQTable(tb, saved, func(_, rows map[string]json.RawMessage) {
			var row []float64
			if err := json.Unmarshal(rows[keys[ord]], &row); err != nil {
				tb.Fatal(err)
			}
			row[act] = to(row[act])
			var err error
			if rows[keys[ord]], err = json.Marshal(row); err != nil {
				tb.Fatal(err)
			}
		})
	}
	docs = append(docs,
		edit(last, lastAct, func(v float64) float64 { return v + 1 }),
		edit(0, 2, func(float64) float64 { return 1 }))
	return docs, []string{keys[last], keys[0]}
}

// TestLoadPolicyRejectsNonSolveTables: LoadPolicy refuses a first-format
// table that is not a last sweep's output with ErrPolicyDigest, naming the
// state it was damaged at.
func TestLoadPolicyRejectsNonSolveTables(t *testing.T) {
	space := fuzzSpace()
	p, _ := trainFlat(t, space)
	saved := firstFormat(t, p)
	if _, err := LoadPolicy(bytes.NewReader(saved), space); err != nil {
		t.Fatalf("the undamaged policy: %v", err)
	}
	docs, states := nonSolveTables(t, p, saved)
	for i, doc := range docs {
		_, err := LoadPolicy(bytes.NewReader(doc), space)
		if want := fmt.Sprintf("state %q", states[i]); !errors.Is(err, ErrPolicyDigest) || !strings.Contains(err.Error(), want) {
			t.Errorf("table damaged at %s: error %v, want an ErrPolicyDigest containing %s", states[i], err, want)
		}
	}
}

// TestLoadPolicyRejectsRowsOfAnotherSurface: a first-format document whose
// rows have the form a solve leaves — each derived from two value vectors —
// but are not the solve of the document's own surface is refused with
// ErrPolicyDigest: rows from random value vectors, in each sweep direction,
// and the rows of a policy trained on another surface under this one's
// header.
func TestLoadPolicyRejectsRowsOfAnotherSurface(t *testing.T) {
	space := fuzzSpace()
	p, _ := trainFlat(t, space)
	rng := sim.NewRNG(0x5a7e)
	var docs [][]byte
	for _, sweeps := range []int{1, 2} { // the last sweep runs forward, then backward
		q := *p
		q.values = valuesOfSweeps(t, p, sweeps)
		for _, vs := range [][]float64{q.values.Prev, q.values.Val} {
			for k := range vs {
				vs[k] = randomValue(rng)
			}
		}
		docs = append(docs, firstFormat(t, &q))
	}
	other, err := learnPolicy("fuzz", space, func(cfg config.Config) (float64, error) {
		return 0.5 + float64(cfg[0])/250, nil
	}, InitOptions{CoarseLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := *other
	q.quad, q.floorRT, q.sla = p.quad, p.floorRT, p.sla
	docs = append(docs, firstFormat(t, &q))
	for i, doc := range docs {
		if _, err := LoadPolicy(bytes.NewReader(doc), space); !errors.Is(err, ErrPolicyDigest) {
			t.Errorf("document %d: error %v, want ErrPolicyDigest", i, err)
		}
	}
}

// valuesOfSweeps returns the values a solve of p's training MDP under its
// schedule leaves after exactly sweeps sweeps; the last one runs forward
// when sweeps is odd.
func valuesOfSweeps(tb testing.TB, p *Policy, sweeps int) mdp.Values {
	tb.Helper()
	st, rewards := p.trainingMDP(parallel.Options{Procs: 1})
	batch := p.schedule
	batch.MaxSweeps, batch.Theta = sweeps, 0
	var v mdp.Values
	if _, err := mdp.Solve(nil, st, rewards, &v, batch); err != nil {
		tb.Fatal(err)
	}
	return v
}
