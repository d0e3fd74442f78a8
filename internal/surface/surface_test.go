package surface

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rac-project/rac/internal/telemetry"
)

func counterValue(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	return reg.Counter(name, "", nil).Value()
}

func TestDoMemoizes(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(reg)
	var calls int32
	compute := func() (float64, error) {
		atomic.AddInt32(&calls, 1)
		return 42, nil
	}
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", compute)
		if err != nil || v != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", c.Len())
	}
	if hits := counterValue(t, reg, "rac_surface_cache_hits_total"); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if misses := counterValue(t, reg, "rac_surface_cache_misses_total"); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

func TestDoMemoizesErrors(t *testing.T) {
	c := New(nil)
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 2; i++ {
		if _, err := c.Do("bad", func() (float64, error) {
			calls++
			return 0, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("Do error = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1", calls)
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *Cache
	var calls int
	for i := 0; i < 2; i++ {
		v, err := c.Do("k", func() (float64, error) {
			calls++
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache memoized: %d calls, want 2", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("nil cache Len = %d", c.Len())
	}
}

// TestDoConcurrentSingleflight hammers overlapping keys from many goroutines:
// each key's compute must run exactly once, every caller must observe that
// one result, and the race detector must stay quiet.
func TestDoConcurrentSingleflight(t *testing.T) {
	c := New(telemetry.NewRegistry())
	const keys = 16
	const workers = 8
	var computes [keys]int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (i + w) % keys
				v, err := c.Do(fmt.Sprintf("key-%d", k), func() (float64, error) {
					atomic.AddInt32(&computes[k], 1)
					return float64(k) * 1.5, nil
				})
				if err != nil || v != float64(k)*1.5 {
					t.Errorf("Do(key-%d) = %v, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k, n := range computes {
		if n != 1 {
			t.Errorf("key-%d computed %d times, want 1", k, n)
		}
	}
	if c.Len() != keys {
		t.Errorf("cache has %d entries, want %d", c.Len(), keys)
	}
}

// TestBoundedNeverExceedsLimit walks far more keys than the limit through a
// bounded cache: Len never passes the limit, and a key evaluated before a
// flush evaluates to the same value after it (recomputed, not remembered).
func TestBoundedNeverExceedsLimit(t *testing.T) {
	const limit = 8
	c := NewBounded(nil, limit)
	value := func(k int) float64 { return float64(k)*0.25 + 1 }
	var computes int
	do := func(k int) float64 {
		t.Helper()
		v, err := c.Do(fmt.Sprintf("key-%d", k), func() (float64, error) {
			computes++
			return value(k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > limit {
			t.Fatalf("after key-%d the cache holds %d keys, limit %d", k, n, limit)
		}
		return v
	}
	before := do(0)
	for k := 1; k < 5*limit; k++ {
		if got := do(k); got != value(k) {
			t.Fatalf("key-%d = %v, want %v", k, got, value(k))
		}
	}
	ran := computes
	if after := do(0); after != before {
		t.Fatalf("key-0 = %v after flushes, %v before", after, before)
	}
	if computes != ran+1 {
		t.Fatalf("key-0 was not recomputed after a flush (%d computes, want %d)", computes, ran+1)
	}
	// Within the limit nothing is dropped.
	small := NewBounded(nil, limit)
	for round := 0; round < 3; round++ {
		for k := 0; k < limit; k++ {
			if _, err := small.Do(fmt.Sprintf("key-%d", k), func() (float64, error) {
				if round > 0 {
					t.Errorf("key-%d recomputed in round %d with the cache at its limit", k, round)
				}
				return value(k), nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if small.Len() != limit {
		t.Fatalf("cache at its limit holds %d keys, want %d", small.Len(), limit)
	}
}

// TestBoundedFlushKeepsInFlightEntries flushes the map while a compute is in
// flight: the caller that started it and a caller that joined it before the
// flush both get its result, from one run; a caller arriving after the flush
// finds no entry, computes again, and gets the same value.
func TestBoundedFlushKeepsInFlightEntries(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewBounded(reg, 2)
	started := make(chan struct{})
	release := make(chan struct{})
	var slowRuns atomic.Int32
	slow := func() (float64, error) {
		if slowRuns.Add(1) == 1 {
			close(started)
			<-release
		}
		return 7, nil
	}
	results := make(chan float64, 2)
	run := func() {
		v, err := c.Do("slow", slow)
		if err != nil {
			t.Error(err)
		}
		results <- v
	}
	go run()
	<-started
	// The joiner's lookup is counted as a hit before it blocks on the entry.
	go run()
	for counterValue(t, reg, "rac_surface_cache_hits_total") < 1 {
		runtime.Gosched()
	}

	// Flush: two more keys push the two-key cache past its limit.
	for k := 0; k < 2; k++ {
		if _, err := c.Do(fmt.Sprintf("filler-%d", k), func() (float64, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-results; v != 7 {
			t.Fatalf("in-flight caller got %v, want 7", v)
		}
	}
	if n := slowRuns.Load(); n != 1 {
		t.Fatalf("in-flight compute ran %d times across the flush, want 1", n)
	}
	if v, err := c.Do("slow", slow); err != nil || v != 7 {
		t.Fatalf("post-flush Do = %v, %v; want 7", v, err)
	}
	if n := slowRuns.Load(); n != 2 {
		t.Fatalf("post-flush lookup ran compute %d times in total, want 2 (the flush forgot the key)", n)
	}
	if n := c.Len(); n > 2 {
		t.Fatalf("cache holds %d keys, limit 2", n)
	}
}

// TestBoundedConcurrentFlushes hammers a tiny bounded cache from many
// goroutines so flushes constantly race lookups and in-flight computes: every
// caller must still observe its key's value, and the race detector must stay
// quiet.
func TestBoundedConcurrentFlushes(t *testing.T) {
	const limit = 4
	c := NewBounded(telemetry.NewRegistry(), limit)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (i*7 + w) % 32
				v, err := c.Do(fmt.Sprintf("key-%d", k), func() (float64, error) {
					return float64(k) * 1.5, nil
				})
				if err != nil || v != float64(k)*1.5 {
					t.Errorf("Do(key-%d) = %v, %v", k, v, err)
					return
				}
				if n := c.Len(); n > limit {
					t.Errorf("cache holds %d keys, limit %d", n, limit)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
