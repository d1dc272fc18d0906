package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
)

// One solve group must cost ONE suggest-gate slot, however many items
// ride in it. The gate here has a single slot and no queue — if the
// grouped path acquired per item (as the legacy path does), the
// concurrent items would shed each other; instead the whole payload
// runs on one slot and one blocked multi-RHS solve.
func TestBatchGroupedOneGateSlotPerSolveGroup(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.Config{
		Suggest: admission.GateConfig{Limit: 1, Queue: 0, MaxWait: time.Second},
	})
	q := pickKnownQuery(t, w)

	// Eight items, one solve signature: six per-user duplicates plus two
	// k variations. No cache is attached, so every item becomes a lane
	// of the same blocked solve.
	var reqs []SuggestRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, SuggestRequest{User: fmt.Sprintf("u%d", i), Query: q, K: 5})
	}
	reqs = append(reqs,
		SuggestRequest{Query: q, K: 3},
		SuggestRequest{Query: q, K: 7},
	)

	var out BatchSuggestResponse
	if code := postJSON(t, ts.URL+"/v1/suggest/batch", BatchSuggestRequest{Requests: reqs}, &out); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	for i, r := range out.Results {
		if r.Status != 200 || r.Response == nil {
			t.Fatalf("item %d: %+v — a grouped batch must not shed itself on a 1-slot gate", i, r)
		}
		if len(r.Response.Suggestions) == 0 {
			t.Fatalf("item %d: empty suggestions", i)
		}
	}
	if solves := srv.Engine().SolveCount(); solves != 1 {
		t.Errorf("batch ran %d CG solves, want 1 blocked solve", solves)
	}

	// The solve-shape telemetry saw one blocked solve of 8 right-hand
	// sides.
	snap := srv.tel.solveBatchSize.Snapshot()
	if snap.Count != 1 {
		t.Errorf("solve_batch_size samples = %d, want 1 (one observation per blocked solve)", int64(snap.Count))
	}
	if snap.Max != float64(len(reqs)) {
		t.Errorf("solve_batch_size max = %v, want %d", snap.Max, len(reqs))
	}
}

// SetBatchSolve(false) restores the legacy independent-item model:
// items coalesce only through the suggestion cache, and the payload
// still answers correctly.
func TestBatchSolveToggle(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	if !srv.BatchSolve() {
		t.Fatal("batch solving must default on")
	}
	srv.SetBatchSolve(false)
	srv.Engine().EnableCache(64, 0)
	q := pickKnownQuery(t, w)

	reqs := make([]SuggestRequest, 4)
	for i := range reqs {
		reqs[i] = SuggestRequest{Query: q, K: 5}
	}
	var out BatchSuggestResponse
	if code := postJSON(t, ts.URL+"/v1/suggest/batch", BatchSuggestRequest{Requests: reqs}, &out); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	for i, r := range out.Results {
		if r.Status != 200 || r.Response == nil {
			t.Fatalf("item %d: %+v", i, r)
		}
	}
	// Legacy coalescing still holds: identical concurrent items share
	// one pipeline run through the cache's inflight table.
	if solves := srv.Engine().SolveCount(); solves != 1 {
		t.Errorf("legacy batch ran %d CG solves, want 1", solves)
	}
	// The single-path metric shape: one sample per solo solve, size 1.
	snap := srv.tel.solveBatchSize.Snapshot()
	if snap.Count != 1 || snap.Max != 1 {
		t.Errorf("solve_batch_size = count %d max %v, want one size-1 sample", int64(snap.Count), snap.Max)
	}
}
