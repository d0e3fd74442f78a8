package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call into a layer's public function: who caused it
// (Parent, 0 for a root), what it was (Name is "layer.Function", Op a free
// label such as the context or rung), and when (nanoseconds since the
// tracer's epoch).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workload code has one path for traced and untraced runs and the
// untraced path pays a nil check.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started, not yet finished span.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	op     string
	start  int64
}

// start opens a span under parent (0 = root). The returned value's id is what
// children name as their parent.
func (t *tracer) start(parent int64, name, op string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.nextID.Add(1), parent: parent, name: name, op: op,
		start: int64(time.Since(t.epoch))}
}

// end closes the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	end := int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{ID: o.id, Parent: o.parent, Name: o.name, Op: o.op,
		StartNS: o.start, EndNS: end})
	o.t.mu.Unlock()
	return time.Duration(end - o.start)
}

// snapshot returns the finished spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// since returns the spans that started at or after startNS.
func since(spans []span, startNS int64) []span {
	var out []span
	for _, s := range spans {
		if s.StartNS >= startNS {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (parallel workers) and may stick out of the parent (clock skew between
// goroutines); the covered part is the union of the child intervals clipped
// to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		cursor := s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats aggregates spans by name: how many, their summed duration and
// summed self time, and every duration in milliseconds for percentiles.
type spanStats struct {
	count  int
	total  time.Duration
	self   time.Duration
	dursMS []float64
}

func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.dur())
		st.self += time.Duration(self[s.ID])
		st.dursMS = append(st.dursMS, float64(s.dur())/1e6)
	}
	return out
}

// statsOf returns the named aggregate, or an empty one, so callers can read
// fields of spans a workload never opens.
func statsOf(agg map[string]*spanStats, name string) *spanStats {
	if st := agg[name]; st != nil {
		return st
	}
	return &spanStats{}
}

// traceFile is the on-disk form of one traced workload run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	P        int    `json:"p"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed uint64, p int, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	blob, err := json.Marshal(traceFile{Workload: workload, Seed: seed, P: p, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
