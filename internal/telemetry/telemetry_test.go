package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	t.Parallel()
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("nil handles must read zero")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var tr *Tracer
	tr.Span("lane", "cat", "name", 0, 1)
	tr.Instant("lane", "cat", "name", 0)
	tr.AsyncBegin("lane", "cat", "name", 1, 0)
	tr.AsyncEnd("lane", "cat", "name", 1, 1)
	tr.Counter("w", 0, 1.5)
	if tr.Enabled() || tr.Len() != 0 {
		t.Fatal("nil tracer must be disabled and empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer JSON invalid: %v", err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("ios_total")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if r.Counter("ios_total") != c {
		t.Fatal("counters must intern by name")
	}

	g := r.Gauge("depth")
	g.Set(4)
	g.Add(3)
	g.Add(-5)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d, want 2 max 7", g.Value(), g.Max())
	}

	h := r.Histogram("lat_ns")
	for _, v := range []int64{1, 2, 3, 1000, 1_000_000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1_001_006 {
		t.Fatalf("hist count %d sum %d", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.5); q < 3 || q > 1023 {
		t.Fatalf("p50 = %d, want within a bucket of 3", q)
	}
	if q := h.Quantile(0.99); q < 1_000_000 || q >= 2_097_152 {
		t.Fatalf("p99 = %d, want within a bucket of 1e6", q)
	}
	h.Observe(-5) // clamps, must not panic
	if h.Count() != 6 {
		t.Fatal("negative observation lost")
	}
}

// TestConcurrentUpdates exercises the lock-free update paths under the
// race detector the way the sweep harness uses them: many goroutines,
// one shared registry.
func TestConcurrentUpdates(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			g := r.Gauge("shared_level")
			h := r.Histogram("shared_hist")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("shared_hist").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("shared_level").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestSnapshotExports(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b_level").Set(2)
	r.Histogram("c_ns").Observe(100)

	s := r.Snapshot()
	if len(s.Counters) != 1 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot holds %d counters, %d gauges, %d histograms, want one each",
			len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	var jb bytes.Buffer
	if err := s.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 3 {
		t.Fatalf("JSON round trip lost counters: %+v", back)
	}

	var tb bytes.Buffer
	if err := s.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	text := tb.String()
	for _, want := range []string{"a_total 3", "b_level 2", "b_level_max 2", "c_ns_count 1", "c_ns_sum 100"} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestDefaultInstallUninstall(t *testing.T) {
	// Not parallel: mutates process-global state.
	if Default() != nil || DefaultTracer() != nil {
		t.Skip("another component installed process defaults")
	}
	r := NewRegistry()
	tr := NewTracer(0)
	SetDefault(r)
	SetDefaultTracer(tr)
	defer SetDefault(nil)
	defer SetDefaultTracer(nil)
	if Default() != r || DefaultTracer() != tr {
		t.Fatal("defaults not installed")
	}
}
