package main

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/slo"
	"repro/internal/suggestcache"
)

// Probes time the small per-request costs the server pays around the
// engine call — the admission gate, the request trace, the SLO and
// flight-recorder bookkeeping, a suggestion-cache lookup, the JSON
// encoding of the response — each in a tight loop through the layer's
// public API, because one call is below a span's resolution.

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

func probe(m *metricSet, e *core.Engine, body []byte, kind opKind) error {
	ctx := context.Background()
	srv, err := newServer(e)
	if err != nil {
		return err
	}
	defer srv.Close()

	gate := srv.Admission().Suggest
	m.set("admission.gate_ns", perCall(200000, func() {
		if _, err := gate.Acquire(ctx); err == nil {
			gate.Release()
		}
	}))

	ring := obs.NewTraceRing(64)
	m.set("obs.trace_ns", perCall(20000, func() {
		tr := obs.NewTrace("0123456789abcdef")
		for _, name := range [...]string{"suggest", "compact", "solve", "hitting", "personalize"} {
			tr.StartSpan(name).End()
		}
		ring.Add(tr.Snapshot())
	}))

	recorder := slo.NewFlightRecorder(slo.DefaultFlightRecorderSize)
	tracker := slo.NewEngine(slo.Config{}).Register(slo.Objective{
		Name: "latency_total", Goal: 0.99, LatencyBudget: 250 * time.Millisecond,
	})
	var ev slo.WideEvent
	ev.SetRequestID("0123456789abcdef")
	m.set("slo.record_ns", perCall(200000, func() {
		recorder.Record(&ev)
		tracker.ObserveLatency(time.Millisecond)
	}))

	cache := suggestcache.New[core.Result](suggestcache.Config{MaxEntries: suggestCacheSize})
	key := suggestcache.Key{Generation: 1, QueryID: 1, K: suggestK, Strategy: "hitting"}
	cache.Put(key, core.Result{})
	m.set("suggestcache.get_ns", perCall(200000, func() { cache.Get(key) }))

	// The captured response of the traced pass's first request, decoded
	// into the server's own type and encoded again.
	var resp server.SuggestResponse
	if kind == opBatch {
		var batch server.BatchSuggestResponse
		if json.Unmarshal(body, &batch) == nil && len(batch.Results) > 0 && batch.Results[0].Response != nil {
			resp = *batch.Results[0].Response
		}
	} else {
		_ = json.Unmarshal(body, &resp) // verified already; a zero response still encodes
	}
	m.set("server.encode_ns", perCall(20000, func() { _, _ = json.Marshal(&resp) }))
	return nil
}
