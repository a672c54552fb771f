package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// GaugeSnapshot is a gauge's exported state.
type GaugeSnapshot struct {
	// Value is the level at export time (summed across merged shards).
	Value int64 `json:"value"`
	// Max is the high-water mark (max across merged shards).
	Max int64 `json:"max"`
}

// HistSnapshot is a histogram's exported summary.
type HistSnapshot struct {
	// N is the observation count.
	N int `json:"n"`
	// Mean, P50, P90, P95, P99, Min, and Max summarize the distribution.
	// P90 is additive: metrics files written before it existed parse
	// with P90 = 0.
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Snapshot is the exportable state of a Registry. encoding/json sorts
// map keys, so marshaling a snapshot is deterministic.
type Snapshot struct {
	// Counters maps counter name to count.
	Counters map[string]uint64 `json:"counters"`
	// Gauges maps gauge name to level and high-water mark.
	Gauges map[string]GaugeSnapshot `json:"gauges"`
	// Histograms maps histogram name to its summary.
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot exports the registry's current state. A nil registry yields
// an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.v, Max: g.max}
	}
	for name, h := range r.hists {
		c := &h.c
		s.Histograms[name] = HistSnapshot{
			N: c.N(), Mean: c.Mean(),
			P50: c.P50(), P90: c.P90(), P95: c.P95(), P99: c.P99(),
			Min: c.Min(), Max: c.Max(),
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON. Output is
// byte-identical for identical registry contents (keys sorted, no
// timestamps).
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadSnapshot parses a metrics JSON file produced by WriteJSON
// (cmd/xgreport's input). The input must be exactly one JSON object:
// anything after it, or a top level of another kind (null included, which
// would otherwise read as an empty run), is an error rather than a report
// of part of the input.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	var raw json.RawMessage
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return s, fmt.Errorf("obs: parsing metrics JSON: %w", err)
	}
	if raw[0] != '{' {
		return s, fmt.Errorf("obs: metrics JSON is %s, not an object", jsonKind(raw[0]))
	}
	if _, err := dec.Token(); err != io.EOF {
		return s, fmt.Errorf("obs: metrics JSON has data after its object")
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("obs: parsing metrics JSON: %w", err)
	}
	return s, nil
}

// jsonKind names the kind of JSON value whose first byte is b.
func jsonKind(b byte) string {
	switch b {
	case 'n':
		return "null"
	case '[':
		return "an array"
	case '"':
		return "a string"
	case 't', 'f':
		return "a boolean"
	}
	return "a number"
}
