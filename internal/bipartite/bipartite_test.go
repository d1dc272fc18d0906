package bipartite

import (
	"math"
	"testing"
	"time"

	"repro/internal/querylog"
)

func ts(s string) time.Time {
	t, err := time.Parse("2006-01-02 15:04:05", s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

// tableILog reconstructs the paper's Table I example.
func tableILog() *querylog.Log {
	l := &querylog.Log{}
	l.Append(querylog.Entry{UserID: "u1", Query: "sun", ClickedURL: "www.java.com", Time: ts("2012-12-12 11:12:41")})
	l.Append(querylog.Entry{UserID: "u1", Query: "sun java", ClickedURL: "java.sun.com", Time: ts("2012-12-12 11:13:01")})
	l.Append(querylog.Entry{UserID: "u1", Query: "jvm download", Time: ts("2012-12-12 11:14:21")})
	l.Append(querylog.Entry{UserID: "u2", Query: "sun", ClickedURL: "www.suncellular.com", Time: ts("2012-12-13 07:13:21")})
	l.Append(querylog.Entry{UserID: "u2", Query: "solar cell", ClickedURL: "en.wikipedia.org", Time: ts("2012-12-13 07:14:21")})
	l.Append(querylog.Entry{UserID: "u3", Query: "sun oracle", ClickedURL: "www.oracle.com", Time: ts("2012-12-14 14:35:14")})
	l.Append(querylog.Entry{UserID: "u3", Query: "java", ClickedURL: "www.java.com", Time: ts("2012-12-14 14:36:26")})
	return l
}

func TestIndex(t *testing.T) {
	ix := NewIndex()
	a := ix.Intern("x")
	b := ix.Intern("y")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := ix.Intern("x"); got != a {
		t.Error("re-interning changed the ID")
	}
	if id, ok := ix.Lookup("y"); !ok || id != b {
		t.Error("Lookup failed")
	}
	if _, ok := ix.Lookup("z"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if ix.Name(a) != "x" || ix.Len() != 2 {
		t.Error("Name/Len wrong")
	}
}

func TestBuildTableIStructure(t *testing.T) {
	r := Build(tableILog(), querylog.SessionizerConfig{}, Raw)
	// 6 distinct queries: sun, sun java, jvm download, solar cell,
	// sun oracle, java.
	if r.NumQueries() != 6 {
		t.Fatalf("queries = %d, want 6", r.NumQueries())
	}
	// 6 distinct clicked URLs.
	if got := r.Objects[ViewURL].Len(); got != 5 {
		t.Errorf("URLs = %d, want 5", got)
	}
	// 3 sessions, as the paper's Definition 1 example states.
	if got := r.Objects[ViewSession].Len(); got != 3 {
		t.Errorf("sessions = %d, want 3", got)
	}
	// Terms: sun, java, jvm, download, solar, cell, oracle.
	if got := r.Objects[ViewTerm].Len(); got != 7 {
		t.Errorf("terms = %d, want 7", got)
	}
}

// The paper's Section III walkthrough: via the query-URL bipartite "sun"
// reaches only "java" (shared www.java.com); via query-session it
// reaches "sun java", "jvm download", "solar cell"; via query-term it
// reaches "sun java", "sun oracle".
func TestTableIReachability(t *testing.T) {
	r := Build(tableILog(), querylog.SessionizerConfig{}, Raw)
	sun, ok := r.QueryID("sun")
	if !ok {
		t.Fatal("sun not indexed")
	}
	reach := func(v View) map[string]bool {
		tr := refQueryTransition(r.W[v])
		out := make(map[string]bool)
		tr.Row(sun, func(c int, val float64) {
			name := r.Queries.Name(c)
			if name != "sun" && val > 0 {
				out[name] = true
			}
		})
		return out
	}
	urlReach := reach(ViewURL)
	if !urlReach["java"] || len(urlReach) != 1 {
		t.Errorf("URL-view reach = %v, want exactly {java}", urlReach)
	}
	sessReach := reach(ViewSession)
	for _, want := range []string{"sun java", "jvm download", "solar cell"} {
		if !sessReach[want] {
			t.Errorf("session-view reach misses %q (got %v)", want, sessReach)
		}
	}
	termReach := reach(ViewTerm)
	for _, want := range []string{"sun java", "sun oracle"} {
		if !termReach[want] {
			t.Errorf("term-view reach misses %q (got %v)", want, termReach)
		}
	}
}

func TestCFIQFDownweightsCommonObjects(t *testing.T) {
	// Two URLs: "common" clicked by 3 distinct queries, "rare" by 1.
	l := &querylog.Log{}
	base := ts("2012-01-01 10:00:00")
	for i, q := range []string{"alpha", "beta", "gamma"} {
		l.Append(querylog.Entry{UserID: "u" + string(rune('1'+i)), Query: q, ClickedURL: "common.example", Time: base.Add(time.Duration(i) * time.Hour)})
	}
	l.Append(querylog.Entry{UserID: "u9", Query: "delta", ClickedURL: "rare.example", Time: base.Add(9 * time.Hour)})

	r := Build(l, querylog.SessionizerConfig{}, CFIQF)
	alpha, _ := r.QueryID("alpha")
	delta, _ := r.QueryID("delta")
	common, _ := r.Objects[ViewURL].Lookup("common.example")
	rare, _ := r.Objects[ViewURL].Lookup("rare.example")
	wCommon := r.W[ViewURL].At(alpha, common)
	wRare := r.W[ViewURL].At(delta, rare)
	if wRare <= wCommon {
		t.Errorf("rare URL weight %v should exceed common URL weight %v", wRare, wCommon)
	}
	// Raw weighting gives both edges weight 1.
	raw := Build(l, querylog.SessionizerConfig{}, Raw)
	alphaR, _ := raw.QueryID("alpha")
	commonR, _ := raw.Objects[ViewURL].Lookup("common.example")
	if got := raw.W[ViewURL].At(alphaR, commonR); got != 1 {
		t.Errorf("raw weight = %v, want 1", got)
	}
}

func TestIQFMatchesFormula(t *testing.T) {
	r := Build(tableILog(), querylog.SessionizerConfig{}, Raw)
	// www.java.com is clicked by 2 distinct queries (sun, java); |Q| = 6.
	u, ok := r.Objects[ViewURL].Lookup("www.java.com")
	if !ok {
		t.Fatal("www.java.com missing")
	}
	want := math.Log(6.0 / 2.0)
	if got := r.IQF(ViewURL, u); math.Abs(got-want) > 1e-12 {
		t.Errorf("IQF = %v, want %v", got, want)
	}
}

func TestQueryTransitionRowStochastic(t *testing.T) {
	r := Build(tableILog(), querylog.SessionizerConfig{}, CFIQF)
	for v := 0; v < NumViews; v++ {
		tr := refQueryTransition(r.W[v])
		for q := 0; q < r.NumQueries(); q++ {
			s := tr.RowSum(q)
			if s != 0 && math.Abs(s-1) > 1e-9 {
				t.Errorf("view %v row %d sums to %v", View(v), q, s)
			}
		}
	}
}

func TestAverageTransitionCombinesViews(t *testing.T) {
	r := Build(tableILog(), querylog.SessionizerConfig{}, Raw)
	avg := refAverageTransition(r)
	sun, _ := r.QueryID("sun")
	// Through the average, sun must reach queries from all three views.
	reached := make(map[string]bool)
	avg.Row(sun, func(c int, v float64) {
		if v > 0 {
			reached[r.Queries.Name(c)] = true
		}
	})
	for _, want := range []string{"java", "sun java", "jvm download", "solar cell", "sun oracle"} {
		if !reached[want] {
			t.Errorf("average transition misses %q; got %v", want, reached)
		}
	}
}

func TestClickedURLs(t *testing.T) {
	r := Build(tableILog(), querylog.SessionizerConfig{}, Raw)
	sun, _ := r.QueryID("sun")
	urls := r.ClickedURLs(sun)
	if len(urls) != 2 || urls["www.java.com"] == 0 || urls["www.suncellular.com"] == 0 {
		t.Errorf("ClickedURLs(sun) = %v", urls)
	}
}
