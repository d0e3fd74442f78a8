package webtier

import (
	"math/bits"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/sim"
)

// TestTimerHeapMatchesSortedModel drives the heap with random set / re-key /
// remove / popDue and compares every pop against a plain table of deadlines.
// Keys come from a small grid so equal deadlines are common.
func TestTimerHeapMatchesSortedModel(t *testing.T) {
	const n = 97
	rng := sim.NewRNG(5)
	var h timerHeap
	h.reset(n)
	armed := make(map[int32]float64)
	key := func() float64 { return float64(rng.Intn(40)) / 4 }

	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		switch op := rng.Intn(10); {
		case op < 5: // arm, or re-key earlier / later / equal
			k := key()
			h.set(i, k)
			armed[int32(i)] = k
		case op < 8:
			h.remove(i)
			delete(armed, int32(i))
		default:
			now := key()
			got := h.popDue(now, nil)
			var want []int32
			for c, k := range armed {
				if k <= now {
					want = append(want, c)
					delete(armed, c)
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: popDue(%v) = %v, want %v", step, now, got, want)
			}
		}
		if err := h.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if h.len() != len(armed) {
			t.Fatalf("step %d: len %d, model %d", step, h.len(), len(armed))
		}
		for c := int32(0); c < n; c++ {
			k, ok := armed[c]
			if h.has(int(c)) != ok || ok && h.key[c] != k {
				t.Fatalf("step %d: client %d present=%v key=%v, model %v %v", step, c, h.has(int(c)), h.key[c], ok, k)
			}
		}
	}
}

// TestTimerHeapPopsInKeyOrder checks that popDue hands back deadlines in
// nondecreasing order and stops at the first later one.
func TestTimerHeapPopsInKeyOrder(t *testing.T) {
	rng := sim.NewRNG(9)
	var h timerHeap
	h.reset(500)
	for i := 0; i < 500; i++ {
		h.set(i, rng.Float64())
	}
	due := h.popDue(0.5, nil)
	for j, c := range due {
		if h.key[c] > 0.5 || j > 0 && h.key[due[j-1]] > h.key[c] {
			t.Fatalf("pop %d: client %d key %v out of order", j, c, h.key[c])
		}
	}
	if h.len() > 0 && h.key[h.heap[0]] <= 0.5 {
		t.Fatalf("a due timer (%v) was left behind", h.key[h.heap[0]])
	}
	if len(due)+h.len() != 500 {
		t.Fatalf("popped %d + left %d != 500", len(due), h.len())
	}
}

// TestTimerHeapResetReuses checks that reset to a smaller or equal population
// keeps the backing arrays and forgets every old entry.
func TestTimerHeapResetReuses(t *testing.T) {
	var h timerHeap
	h.reset(64)
	for i := 0; i < 64; i++ {
		h.set(i, float64(64-i))
	}
	h.reset(10)
	if h.len() != 0 || len(h.pos) != 10 || cap(h.key) != 64 {
		t.Fatalf("after reset: len %d, pos %d, cap %d", h.len(), len(h.pos), cap(h.key))
	}
	for i := 0; i < 10; i++ {
		if h.has(i) {
			t.Fatalf("client %d survived reset", i)
		}
	}
	h.reset(200)
	h.set(199, 1)
	if err := h.check(); err != nil {
		t.Fatal(err)
	}
}

func TestClientSetAscendingIteration(t *testing.T) {
	var s clientSet
	s.reset(300)
	want := []int{0, 1, 63, 64, 65, 127, 128, 200, 299}
	for _, i := range []int{200, 64, 0, 299, 63, 1, 128, 65, 127, 77} {
		s.add(i)
	}
	s.del(77)
	var got []int
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			got = append(got, w<<6|bits.TrailingZeros64(word))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
	if s.has(77) || !s.has(299) {
		t.Fatal("membership wrong after del")
	}
	s.reset(64)
	if len(s) != 1 || s[0] != 0 {
		t.Fatalf("reset left %v", s)
	}
}
