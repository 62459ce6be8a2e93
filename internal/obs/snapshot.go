package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// CounterValue is one counter series in a snapshot.
type CounterValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeValue is one gauge series in a snapshot.
type GaugeValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramSeries is one histogram series in a snapshot.
type HistogramSeries struct {
	Name   string         `json:"name"`
	Labels []Label        `json:"labels,omitempty"`
	Value  HistogramValue `json:"value"`
}

// Snapshot is the serializable state of a registry at one instant. Series
// are sorted by canonical id, buckets by index, and Help keys by name (Go
// marshals map keys sorted), so identical registry states yield
// byte-identical JSON — the property the sweep's artifact determinism
// guarantee is stated over.
type Snapshot struct {
	Counters   []CounterValue    `json:"counters,omitempty"`
	Gauges     []GaugeValue      `json:"gauges,omitempty"`
	Histograms []HistogramSeries `json:"histograms,omitempty"`
	// Help carries the families' HELP text (name → help) so a snapshot
	// merged on another machine renders the same /metrics exposition as the
	// registry it came from.
	Help map[string]string `json:"help,omitempty"`
}

// Snapshot captures the registry's current state. Unset gauges are skipped.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	for _, f := range r.fams {
		if f.help != "" {
			if snap.Help == nil {
				snap.Help = map[string]string{}
			}
			snap.Help[f.name] = f.help
		}
		for _, s := range f.series {
			switch f.k {
			case counterKind:
				snap.Counters = append(snap.Counters, CounterValue{f.name, s.labels, s.c.Value()})
			case gaugeKind:
				if s.g.IsSet() {
					snap.Gauges = append(snap.Gauges, GaugeValue{f.name, s.labels, s.g.Value()})
				}
			case histogramKind:
				snap.Histograms = append(snap.Histograms, HistogramSeries{f.name, s.labels, s.h.Value()})
			}
		}
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return SeriesID(snap.Counters[i].Name, snap.Counters[i].Labels) < SeriesID(snap.Counters[j].Name, snap.Counters[j].Labels)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return SeriesID(snap.Gauges[i].Name, snap.Gauges[i].Labels) < SeriesID(snap.Gauges[j].Name, snap.Gauges[j].Labels)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return SeriesID(snap.Histograms[i].Name, snap.Histograms[i].Labels) < SeriesID(snap.Histograms[j].Name, snap.Histograms[j].Labels)
	})
	return snap
}

// validate rejects what a registry cannot hold: a name under two kinds,
// and a negative counter.
func (s *Snapshot) validate() error {
	kinds := map[string]kind{}
	claim := func(name string, k kind) error {
		if prev, ok := kinds[name]; ok && prev != k {
			return fmt.Errorf("obs: metric %q is both a %s and a %s", name, prev, k)
		}
		kinds[name] = k
		return nil
	}
	for _, c := range s.Counters {
		if c.Value < 0 {
			return fmt.Errorf("obs: counter %q is negative (%d)", c.Name, c.Value)
		}
		if err := claim(c.Name, counterKind); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := claim(g.Name, gaugeKind); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := claim(h.Name, histogramKind); err != nil {
			return err
		}
	}
	return nil
}

// MergeSnapshot folds a snapshot into the registry: counters and histogram
// buckets add, gauges overwrite. This is the cross-shard (and cross-machine)
// aggregation path: merging per-shard snapshots produces exactly the
// registry a serial run over all shards would have built. A series whose
// name the registry already holds under another kind is skipped; the return
// value counts the skipped series.
func (r *Registry) MergeSnapshot(s *Snapshot) (conflicts int) {
	if s == nil {
		return 0
	}
	for name, help := range s.Help {
		r.SetHelp(name, help)
	}
	for _, c := range s.Counters {
		if se, err := r.lookup(c.Name, counterKind, c.Labels); err == nil {
			se.c.Add(c.Value)
		} else {
			conflicts++
		}
	}
	for _, g := range s.Gauges {
		if se, err := r.lookup(g.Name, gaugeKind, g.Labels); err == nil {
			se.g.Set(g.Value)
		} else {
			conflicts++
		}
	}
	for _, h := range s.Histograms {
		if se, err := r.lookup(h.Name, histogramKind, h.Labels); err == nil {
			se.h.MergeValue(h.Value)
		} else {
			conflicts++
		}
	}
	return conflicts
}

// Merge folds another snapshot into s (without a registry): counters and
// histogram buckets add, gauges overwrite.
func (s *Snapshot) Merge(other *Snapshot) *Snapshot {
	r := NewRegistry()
	r.MergeSnapshot(s)
	r.MergeSnapshot(other)
	return r.Snapshot()
}

// CounterValue looks up one counter series by identity (false when absent).
func (s *Snapshot) CounterValue(name string, labels ...Label) (int64, bool) {
	id := SeriesID(name, labels)
	for _, c := range s.Counters {
		if SeriesID(c.Name, c.Labels) == id {
			return c.Value, true
		}
	}
	return 0, false
}

// GaugeValue looks up one gauge series by identity (false when absent).
func (s *Snapshot) GaugeValue(name string, labels ...Label) (float64, bool) {
	id := SeriesID(name, labels)
	for _, g := range s.Gauges {
		if SeriesID(g.Name, g.Labels) == id {
			return g.Value, true
		}
	}
	return 0, false
}

// WriteText renders the snapshot as aligned human-readable lines: counters
// and gauges one per line, histograms as count/mean/quantile summaries.
// The output is deterministic (series sorted by id).
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-52s %d\n", SeriesID(c.Name, c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%-52s %s\n", SeriesID(g.Name, g.Labels), formatFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		v := h.Value
		if _, err := fmt.Fprintf(w, "%-52s n=%d mean=%s p50=%s p99=%s max=%s\n",
			SeriesID(h.Name, h.Labels), v.Count, formatFloat(v.Mean()),
			formatFloat(v.Quantile(0.5)), formatFloat(v.Quantile(0.99)), formatFloat(v.Max)); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a float with the shortest round-trip representation,
// the same convention the Prometheus writer uses.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
