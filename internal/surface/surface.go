// Package surface memoizes response-surface evaluations. Policy training and
// best-config searches evaluate the same (configuration, context, sampling)
// points over and over — coarse-lattice sweeps repeat across figures, and
// regression baselines re-measure configurations the sweep already visited —
// so a concurrency-safe memo in front of the analytic and simulated measure
// paths removes that repeated work without changing a single figure.
//
// The cache deliberately stores only scalars keyed by strings: callers fold
// every input the evaluation depends on (configuration key, workload mix,
// client count, VM level, sampling windows, measurement seed) into the key,
// which is what makes a hit byte-identical to a recomputation. Entries are
// deduplicated in flight: concurrent requests for one key run the compute
// function exactly once and share its result, the same singleflight idiom the
// bench harness uses for whole policies.
//
// A cache built with NewBounded holds at most a fixed number of keys: when a
// new key would exceed the limit the whole map is dropped and refilled on
// demand. Values are pure functions of their keys, so a flush can cost a
// recomputation but can never change a result.
package surface

import (
	"sync"

	"github.com/rac-project/rac/internal/telemetry"
)

// Cache is a concurrency-safe memo from evaluation keys to scalar results.
// The zero value is unusable; construct with New. A nil *Cache is valid and
// caches nothing — callers can thread an optional cache without branching.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	limit   int // most keys held at once; 0 = unbounded

	hits   *telemetry.Counter
	misses *telemetry.Counter
}

// entry is one memoized (or in-flight) evaluation.
type entry struct {
	once sync.Once
	val  any
	err  error
}

// New builds an empty cache. When reg is non-nil the cache registers
// rac_surface_cache_hits_total and rac_surface_cache_misses_total on it.
func New(reg *telemetry.Registry) *Cache { return NewBounded(reg, 0) }

// NewBounded is New for a long-lived owner whose key set can grow without
// limit (a daemon whose tenants' workloads drift): the cache never holds more
// than limit keys, flushing everything when a new key would exceed it. A
// limit of zero or less means unbounded.
func NewBounded(reg *telemetry.Registry, limit int) *Cache {
	c := &Cache{entries: make(map[string]*entry), limit: limit}
	if reg != nil {
		c.hits = reg.Counter("rac_surface_cache_hits_total",
			"Response-surface evaluations served from the memo.", nil)
		c.misses = reg.Counter("rac_surface_cache_misses_total",
			"Response-surface evaluations computed and memoized.", nil)
	}
	return c
}

// Do returns the memoized scalar for key, running compute at most once per
// key across all goroutines. Errors are memoized like values: the evaluations
// being cached are deterministic, so a failed key fails every time. On a nil
// cache Do simply runs compute.
func (c *Cache) Do(key string, compute func() (float64, error)) (float64, error) {
	v, err := c.DoValue(key, func() (any, error) { return compute() })
	if v == nil {
		return 0, err
	}
	return v.(float64), err
}

// DoValue is Do for non-scalar evaluations (e.g. a full simulated-measurement
// stats struct). Callers must store a consistent type per key.
func (c *Cache) DoValue(key string, compute func() (any, error)) (any, error) {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if c.limit > 0 && len(c.entries) >= c.limit {
			// Callers already holding an entry finish on it; only the map
			// forgets them.
			c.entries = make(map[string]*entry)
		}
		e = &entry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		if c.hits != nil {
			c.hits.Inc()
		}
	} else if c.misses != nil {
		c.misses.Inc()
	}
	e.once.Do(func() {
		e.val, e.err = compute()
	})
	return e.val, e.err
}

// Len returns the number of memoized (or in-flight) keys.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
