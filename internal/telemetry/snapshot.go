package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistogramValue is one histogram in a snapshot. Buckets are reported
// sparsely: Buckets[i] counts values in [2^(Lows[i]-1), 2^Lows[i]).
type HistogramValue struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Mean    float64 `json:"mean"`
	P50     int64   `json:"p50"`
	P99     int64   `json:"p99"`
	Lows    []int   `json:"bucket_exps,omitempty"`
	Buckets []int64 `json:"bucket_counts,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot copies the registry's current state, sorted by metric name.
// A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.names()
	for _, name := range names {
		if c, ok := r.cs[name]; ok {
			s.Counters = append(s.Counters, CounterValue{name, c.Value()})
		}
		if g, ok := r.gs[name]; ok {
			s.Gauges = append(s.Gauges, GaugeValue{name, g.Value(), g.Max()})
		}
		if h, ok := r.hs[name]; ok {
			hv := HistogramValue{
				Name:  name,
				Count: h.Count(),
				Sum:   h.Sum(),
				Mean:  h.Mean(),
				P50:   h.Quantile(0.50),
				P99:   h.Quantile(0.99),
			}
			for i := 0; i < histBuckets; i++ {
				if n := h.buckets[i].Load(); n > 0 {
					hv.Lows = append(hv.Lows, i)
					hv.Buckets = append(hv.Buckets, n)
				}
			}
			s.Histograms = append(s.Histograms, hv)
		}
	}
	return s
}

// WriteJSON emits the snapshot as an indented JSON document.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText emits the snapshot as Prometheus-style text exposition:
// one `name value` line per counter and gauge (gauges also report a
// `_max` high-water series), and `_count` / `_sum` / quantile lines per
// histogram.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%s %d\n%s_max %d\n", g.Name, g.Value, g.Name, g.Max); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %d\n%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.99\"} %d\n",
			h.Name, h.Count, h.Name, h.Sum, h.Name, h.P50, h.Name, h.P99); err != nil {
			return err
		}
	}
	return nil
}
