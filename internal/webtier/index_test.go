package webtier

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/sim"
)

// calendarLap is the span of one turn of the ring at the shipped slice.
const calendarLap = calendarSlots * 0.025

// TestCalendarMatchesModel drives a calendar with random set / re-key /
// remove / popDue against a plain table of deadlines and requires every
// popDue to return exactly {i : key[i] <= t}. Keys land below the cursor,
// exactly at the clock, within a lap, one lap and 35 minutes ahead, and at
// huge and infinite values; re-keys move entries earlier as often as later;
// the clock mostly advances by the slice as the model's does (an accumulated
// float), now and then jumps several laps, and now and then pops at a time
// already passed.
func TestCalendarMatchesModel(t *testing.T) {
	const n, width = 97, 0.025
	rng := sim.NewRNG(5)
	var c calendar
	now := 3.0
	c.reset(n, width, now)
	armed := make(map[int32]float64)
	offsets := []float64{-2, -width, 0, 0, width / 3, width, 7 * width, 1, 30,
		calendarLap - width, calendarLap, calendarLap + width/2, 3 * calendarLap, 35 * 60}
	key := func() float64 {
		switch r := rng.Intn(40); {
		case r == 0:
			return 1e300
		case r == 1:
			return math.Inf(1)
		case r < 6:
			return now + float64(rng.Intn(200))*width/4
		default:
			return now + offsets[rng.Intn(len(offsets))]
		}
	}

	for step := 0; step < 40000; step++ {
		i := rng.Intn(n)
		switch op := rng.Intn(20); {
		case op < 9: // arm, or re-key earlier / later / equal
			k := key()
			c.set(i, k)
			armed[int32(i)] = k
		case op < 12:
			c.remove(i)
			delete(armed, int32(i))
		default:
			at := now
			switch r := rng.Intn(50); {
			case r == 0:
				now += float64(1+rng.Intn(3)) * calendarLap
				at = now
			case r == 1:
				at = now - float64(rng.Intn(5))*width // already passed
			default:
				now += width
				at = now
			}
			got := c.popDue(at, nil)
			var want []int32
			for j, k := range armed {
				if k <= at {
					want = append(want, j)
					delete(armed, j)
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: popDue(%v) = %v, want %v", step, at, got, want)
			}
		}
		if err := c.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if c.len() != len(armed) {
			t.Fatalf("step %d: len %d, model %d", step, c.len(), len(armed))
		}
		for j := int32(0); j < n; j++ {
			k, ok := armed[j]
			if c.has(int(j)) != ok || ok && c.key[j] != k {
				t.Fatalf("step %d: client %d armed=%v key=%v, model %v %v", step, j, c.has(int(j)), c.key[j], ok, k)
			}
		}
	}
}

// TestCalendarPopDueEdges walks the cases the bucket arithmetic could get
// wrong, one at a time.
func TestCalendarPopDueEdges(t *testing.T) {
	const width = 0.025
	var c calendar
	c.reset(8, width, 100)
	pop := func(at float64, want ...int32) {
		t.Helper()
		got := c.popDue(at, nil)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("popDue(%v) = %v, want %v", at, got, want)
		}
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	}
	// A key exactly at t is due; one ulp later is not, and shares t's bucket.
	c.set(0, 100.05)
	c.set(1, math.Nextafter(100.05, math.Inf(1)))
	pop(100.05, 0)
	pop(math.Nextafter(100.05, math.Inf(1)), 1)

	// Keys below the cursor are filed at the cursor and pop at the next call,
	// even one made at an earlier time, as long as their key is due.
	c.set(2, 90)
	c.set(3, 100.04)
	pop(95, 2)
	pop(100.04, 3)

	// One lap ahead shares t's ring slot but not its bucket; a 35-minute
	// session key waits out every lap in between.
	lap, session := 100.1+calendarLap, 100.1+35*60
	c.set(4, lap)
	c.set(5, session)
	pop(100.1)
	pop(math.Nextafter(lap, 0))
	pop(lap, 4)
	for at := lap; at < session; at += calendarLap / 3 {
		pop(at)
	}
	pop(session, 5)

	// A lowered re-key (a SessionTimeout decrease) moves the entry earlier.
	c.set(6, 5000)
	c.set(6, 2300)
	pop(2299.99)
	pop(2300, 6)

	// Huge and infinite keys clamp to the last bucket and pop only when due.
	c.set(6, 1e300)
	c.set(7, math.Inf(1))
	pop(1e299)
	pop(1e300, 6)
	pop(math.Inf(1), 7)
	if c.len() != 0 {
		t.Fatalf("%d timers left", c.len())
	}
}

// TestCalendarResetReuses checks that reset to a smaller or equal population
// at a new clock keeps the backing arrays, forgets every old entry and starts
// the ring at the new clock.
func TestCalendarResetReuses(t *testing.T) {
	var c calendar
	c.reset(64, 0.025, 0)
	for i := 0; i < 64; i++ {
		c.set(i, float64(64-i))
	}
	c.popDue(30, nil)
	c.reset(10, 0.025, 5000)
	if c.len() != 0 || len(c.at) != 10 || cap(c.key) != 64 {
		t.Fatalf("after reset: len %d, clients %d, cap %d", c.len(), len(c.at), cap(c.key))
	}
	for i := 0; i < 10; i++ {
		if c.has(i) {
			t.Fatalf("client %d survived reset", i)
		}
	}
	if err := c.check(); err != nil {
		t.Fatal(err)
	}
	c.set(3, 4000) // behind the new clock
	c.set(4, 5000.5)
	if got := c.popDue(5000, nil); !slices.Equal(got, []int32{3}) {
		t.Fatalf("popDue after reset = %v, want [3]", got)
	}
	c.reset(200, 0.2, 7)
	c.set(199, 8)
	if err := c.check(); err != nil {
		t.Fatal(err)
	}
	if got := c.popDue(8, nil); !slices.Equal(got, []int32{199}) {
		t.Fatalf("popDue at a new population = %v, want [199]", got)
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
