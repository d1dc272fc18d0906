package pqsda

// Micro-benchmarks for the deployment-facing features: online fold-in,
// engine persistence, the HTTP middleware, and the personalization
// primitives.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/topicmodel"
)

// BenchmarkFoldIn measures folding one new user (25 sessions) into a
// trained UPM without retraining.
func BenchmarkFoldIn(b *testing.B) {
	e, _ := componentFixture(b)
	donor := e.Log().Users()[0]
	entries := e.Log().ByUser(donor)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.LearnUser("bench-user", entries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSave measures engine serialization.
func BenchmarkEngineSave(b *testing.B) {
	e, _ := componentFixture(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

// BenchmarkEngineLoad measures engine deserialization.
func BenchmarkEngineLoad(b *testing.B) {
	e, _ := componentFixture(b)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadEngine(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerSuggest measures one HTTP suggestion round trip
// through the middleware.
func BenchmarkServerSuggest(b *testing.B) {
	e, qs := componentFixture(b)
	srv := server.New(e, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	users := e.Log().Users()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(server.SuggestRequest{
			User: users[i%len(users)], Query: qs[i%len(qs)], K: 10,
		})
		resp, err := http.Post(ts.URL+"/v1/suggest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// BenchmarkPreferenceScore measures one Eq. 31 evaluation.
func BenchmarkPreferenceScore(b *testing.B) {
	e, qs := componentFixture(b)
	user := e.Log().Users()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Profiles().PreferenceScore(user, qs[i%len(qs)], profile.Posterior)
	}
}

// BenchmarkBordaAggregate measures the rank-aggregation step on a
// 10-item list.
func BenchmarkBordaAggregate(b *testing.B) {
	_, qs := componentFixture(b)
	n := 10
	if n > len(qs) {
		n = len(qs)
	}
	r1 := qs[:n]
	r2 := make([]string, n)
	copy(r2, r1)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		r2[i], r2[j] = r2[j], r2[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.BordaAggregate(r1, r2)
	}
}

// BenchmarkUPMFoldInDirect measures the raw fold-in (no engine
// plumbing) at 20 Gibbs sweeps.
func BenchmarkUPMFoldInDirect(b *testing.B) {
	e, _ := componentFixture(b)
	upm := e.Profiles().UPM()
	// Reuse the first trained doc's sessions via the corpus.
	sessions := topicmodel.SessionsForFoldIn(e.Corpus(),
		e.Sessions()[:min(10, len(e.Sessions()))], nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upm.FoldIn("bench-direct", sessions, 20, int64(i))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
