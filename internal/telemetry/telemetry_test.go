package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", nil)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("inflight", "in-flight requests", nil)
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2.0", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Labels{"k": "v"})
	b := r.Counter("x_total", "", Labels{"k": "v"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := r.Counter("x_total", "", Labels{"k": "w"}); c == a {
		t.Fatal("different labels must return a different counter")
	}

	for name, fn := range map[string]func(){
		"kind conflict": func() { r.Gauge("x_total", "", Labels{"k": "v"}) },
		"bad metric":    func() { r.Counter("9bad", "", nil) },
		"bad label":     func() { r.Counter("ok_total", "", Labels{"0k": "v"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rt_seconds", "", []float64{1, 2, 4}, nil)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bounds are inclusive upper bounds, cumulative counts.
	want := []int64{2, 4, 6}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket le=%v: got %d, want %d", s.UpperBounds[i], s.Buckets[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 21 {
		t.Errorf("sum = %v, want 21", s.Sum)
	}
}

func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rt_seconds", "", []float64{0.5, 1, 2}, nil)
	const (
		workers = 8
		perG    = 5000
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	// Concurrent reader: a Snapshot taken mid-flight must stay internally
	// consistent — cumulative bucket counts never exceed the total, since
	// every per-shard bucket read contributes to both in the same pass.
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			for i, c := range s.Buckets {
				if c > s.Count {
					t.Errorf("torn snapshot: bucket[%d]=%d > count=%d", i, c, s.Count)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%4) * 0.6)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	s := h.Snapshot()
	if s.Count != int64(workers*perG) {
		t.Fatalf("count = %d, want %d", s.Count, workers*perG)
	}
	// values cycle 0, 0.6, 1.2, 1.8 → buckets le=0.5:1/4, le=1:2/4, le=2:4/4
	quarter := int64(workers * perG / 4)
	wantBuckets := []int64{quarter, 2 * quarter, 4 * quarter}
	for i, w := range wantBuckets {
		if s.Buckets[i] != w {
			t.Errorf("bucket le=%v: got %d, want %d", s.UpperBounds[i], s.Buckets[i], w)
		}
	}
	wantSum := float64(workers*perG/4) * (0 + 0.6 + 1.2 + 1.8)
	if diff := s.Sum - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	for i := 1; i <= 5; i++ {
		tr.Add(Event{Kind: KindStep, Iteration: i})
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
	snap := tr.Snapshot()
	for i, want := range []int{3, 4, 5} {
		if snap[i].Iteration != want || snap[i].Seq != uint64(want) {
			t.Errorf("snap[%d] = %+v, want iteration/seq %d", i, snap[i], want)
		}
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Add(Event{Kind: KindStep, Iteration: i})
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", tr.Total())
	}
}

// goldenRegistry builds the deterministic fixture shared by the golden and
// parse tests.
func goldenRegistry() *Registry {
	r := NewRegistry()
	steps := r.Counter("rac_agent_steps_total", "Agent tuning iterations.", nil)
	steps.Add(12)
	r.Counter("httpd_requests_total", "Served requests by page class.", Labels{"class": "home"}).Add(7)
	r.Counter("httpd_requests_total", "Served requests by page class.", Labels{"class": "search"}).Add(3)
	r.Gauge("rac_agent_epsilon", "Exploration rate in force.", nil).Set(0.05)
	h := r.Histogram("httpd_request_seconds", "Request latency in paper-scale seconds.",
		[]float64{0.5, 1, 2}, Labels{"class": "home"})
	for _, v := range []float64{0.1, 0.6, 0.6, 1.5, 5} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by writing the got output)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

// TestPrometheusParse checks every exposition line against the text-format
// grammar the way a scraper would: comments are HELP/TYPE, samples are
// `name{labels} value` with a parseable float value.
func TestPrometheusParse(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[parts[0]]; dup {
				t.Errorf("duplicate TYPE for family %s", parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		name, value, err := parseSample(line)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("sample %q has no TYPE line (family %s)", name, family)
		}
		_ = value
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples emitted")
	}
	if types["httpd_request_seconds"] != "histogram" {
		t.Errorf("types = %v, want httpd_request_seconds histogram", types)
	}
}

// parseSample decomposes one sample line into metric name and value.
func parseSample(line string) (string, float64, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", 0, fmt.Errorf("no value separator")
	}
	value, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value: %v", err)
	}
	ident := line[:sp]
	name := ident
	if i := strings.IndexByte(ident, '{'); i >= 0 {
		if !strings.HasSuffix(ident, "}") {
			return "", 0, fmt.Errorf("unterminated label set")
		}
		name = ident[:i]
		body := ident[i+1 : len(ident)-1]
		for _, pair := range splitLabelPairs(body) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 || !validLabelName(pair[:eq]) {
				return "", 0, fmt.Errorf("bad label pair %q", pair)
			}
			v := pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", 0, fmt.Errorf("unquoted label value %q", v)
			}
		}
	}
	if !validMetricName(name) {
		return "", 0, fmt.Errorf("bad metric name %q", name)
	}
	return name, value, nil
}

// splitLabelPairs splits k1="v1",k2="v2" on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestSnapshotJSONShape(t *testing.T) {
	s := goldenRegistry().Snapshot()
	if len(s.Counters) != 3 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot shape = %d/%d/%d, want 3/1/1",
			len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	if s.Histograms[0].Count != 5 {
		t.Errorf("histogram count = %d, want 5", s.Histograms[0].Count)
	}
	// Counters are sorted by name then labels.
	if s.Counters[0].Labels["class"] != "home" || s.Counters[1].Labels["class"] != "search" {
		t.Errorf("counters not label-sorted: %+v", s.Counters)
	}
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns how many events were ever added (≥ Len after wraparound).
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
