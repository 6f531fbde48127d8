package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sample is one rendered metric value. Histograms contribute one sample per
// cumulative bucket (name_bucket{le="..."}) plus name_sum and name_count.
type Sample struct {
	Name  string
	Value float64
}

// metricEntry is one registered metric: identity plus a collect function
// producing its current samples.
type metricEntry struct {
	name, help, typ string
	collect         func() []Sample
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Construction methods on a nil registry return nil
// instruments, so a component handed a nil registry runs with telemetry
// disabled at the cost of one branch per observation.
type Registry struct {
	mu      sync.Mutex
	entries []metricEntry
	names   map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(name, help, typ string, collect func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("telemetry: duplicate metric " + name)
	}
	r.names[name] = true
	r.entries = append(r.entries, metricEntry{name: name, help: help, typ: typ, collect: collect})
}

// Counter registers and returns a new counter; nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := NewCounter()
	r.register(name, help, "counter", func() []Sample {
		return []Sample{{Name: name, Value: float64(c.Value())}}
	})
	return c
}

// Gauge registers and returns a new gauge; nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := NewGauge()
	r.register(name, help, "gauge", func() []Sample {
		return []Sample{{Name: name, Value: float64(g.Value())}}
	})
	return g
}

// Histogram registers and returns a new histogram with the given upper
// bucket bounds; nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	h := NewHistogram(bounds...)
	r.register(name, help, "histogram", func() []Sample {
		bs, cum := h.snapshot()
		out := make([]Sample, 0, len(cum)+2)
		for i, c := range cum {
			le := "+Inf"
			if i < len(bs) {
				le = strconv.FormatFloat(bs[i], 'g', -1, 64)
			}
			out = append(out, Sample{Name: name + `_bucket{le="` + le + `"}`, Value: float64(c)})
		}
		out = append(out,
			Sample{Name: name + "_sum", Value: h.Sum()},
			Sample{Name: name + "_count", Value: float64(h.Count())})
		return out
	})
	return h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be safe to call from any goroutine. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", func() []Sample {
		return []Sample{{Name: name, Value: fn()}}
	})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// fn must be safe to call from any goroutine. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", func() []Sample {
		return []Sample{{Name: name, Value: fn()}}
	})
}

// Snapshot returns every metric's current samples in registration order.
// Nil registries return nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]metricEntry(nil), r.entries...)
	r.mu.Unlock()
	var out []Sample
	for _, e := range entries {
		out = append(out, e.collect()...)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), metrics sorted by name for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]metricEntry(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.typ); err != nil {
			return err
		}
		for _, s := range e.collect() {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, strconv.FormatFloat(s.Value, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ParseText parses a Prometheus text exposition, the inverse of
// WritePrometheus, into sample values keyed by sample name. Labelled
// samples keep their labels verbatim in the key (`h_bucket{le="0.5"}`),
// the keying Collector reconstructs histograms from. Blank and comment
// lines are skipped; every other line must be "name value", and the first
// that is not is an error.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("telemetry: exposition line %d %q: want \"name value\"", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d %q: %w", n, line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
