package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specFile is BENCHMARK.json at the checkout root, the one place that
// names the workloads and every metric with its unit, direction and
// bound. The harness reads it at start-up instead of repeating it: a
// value can only be reported under a declared name, with the declared
// unit, and a run that leaves a declared metric out fails.
const specFile = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one declared list of metrics.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric, len(defs))}
}

// set reports value under a declared name; an undeclared name is a bug
// in the harness.
func (s *metricSet) set(name string, value float64) {
	for _, d := range s.defs {
		if d.Name == name {
			s.m[name] = metric{value, d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in " + specFile)
}

// complete returns the collected metrics, or which declared one is
// missing.
func (s *metricSet) complete() (map[string]metric, error) {
	for _, d := range s.defs {
		if _, ok := s.m[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, specFile)
		}
	}
	return s.m, nil
}

func (s *metricSet) print(w io.Writer) {
	for _, d := range s.defs {
		if v, ok := s.m[d.Name]; ok {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}
