package pqsda

// Micro-benchmarks for the deployment-facing features: online fold-in,
// engine persistence, the HTTP middleware, and the personalization
// primitives.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/querylog"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

// BenchmarkFoldIn measures LearnUser — folding one user's 25 sessions
// into a clone of the trained UPM and publishing it — on worlds of 150
// and 600 users, so a per-learn cost that grows with the user count
// shows as the gap between the two.
func BenchmarkFoldIn(b *testing.B) {
	for _, users := range []int{150, 600} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			e := learnFixture(b, users)
			donor := e.Log().Users()[0]
			entries := e.Log().ByUser(donor)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.LearnUser("bench-user", entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var learnFixtures sync.Map // users -> *core.Engine

// learnFixture is componentFixture's world and training at a given
// user count, built once per count.
func learnFixture(b *testing.B, users int) *core.Engine {
	if e, ok := learnFixtures.Load(users); ok {
		return e.(*core.Engine)
	}
	w := synth.Generate(synth.Config{Seed: 5, NumUsers: users, SessionsPerUser: 25})
	clean, _ := querylog.Clean(w.Log, querylog.CleanerConfig{})
	e, err := core.NewEngine(clean, core.Config{
		Weighting: bipartite.CFIQF,
		Compact:   bipartite.CompactConfig{Budget: 150},
		UPM:       topicmodel.UPMConfig{K: 8, Iterations: 30, Seed: 5, HyperRounds: 1, HyperIters: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	learnFixtures.Store(users, e)
	return e
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
