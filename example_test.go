package pqsda_test

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// buildTinyLog assembles the paper's Table I example log by hand.
func buildTinyLog() *pqsda.Log {
	mk := func(s string) time.Time {
		t, _ := time.Parse("2006-01-02 15:04:05", s)
		return t.UTC()
	}
	l := &pqsda.Log{}
	l.Append(pqsda.Entry{UserID: "u1", Query: "sun", ClickedURL: "www.java.com", Time: mk("2012-12-12 11:12:41")})
	l.Append(pqsda.Entry{UserID: "u1", Query: "sun java", ClickedURL: "java.sun.com", Time: mk("2012-12-12 11:13:01")})
	l.Append(pqsda.Entry{UserID: "u1", Query: "jvm download", Time: mk("2012-12-12 11:14:21")})
	l.Append(pqsda.Entry{UserID: "u2", Query: "sun", ClickedURL: "www.suncellular.com", Time: mk("2012-12-13 07:13:21")})
	l.Append(pqsda.Entry{UserID: "u2", Query: "solar cell", ClickedURL: "en.wikipedia.org", Time: mk("2012-12-13 07:14:21")})
	l.Append(pqsda.Entry{UserID: "u3", Query: "sun oracle", ClickedURL: "www.oracle.com", Time: mk("2012-12-14 14:35:14")})
	l.Append(pqsda.Entry{UserID: "u3", Query: "java", ClickedURL: "www.java.com", Time: mk("2012-12-14 14:36:26")})
	return l
}

// ExampleSessionize reproduces the paper's Definition 1 walkthrough:
// Table I's seven entries form exactly three sessions.
func ExampleSessionize() {
	sessions := pqsda.Sessionize(buildTinyLog())
	fmt.Println("sessions:", len(sessions))
	for _, s := range sessions {
		fmt.Println(s.UserID, s.Queries())
	}
	// Output:
	// sessions: 3
	// u1 [sun sun java jvm download]
	// u2 [sun solar cell]
	// u3 [sun oracle java]
}

// ExampleNewEngine shows the minimal end-to-end flow on the Table I
// log: diversified suggestions for the ambiguous query "sun".
func ExampleNewEngine() {
	engine, err := pqsda.NewEngine(buildTinyLog(), pqsda.Config{
		CompactBudget:       10,
		DiversificationOnly: true,
	})
	if err != nil {
		panic(err)
	}
	res, err := engine.Do(context.Background(), pqsda.SuggestRequest{Query: "sun", At: time.Now(), K: 3, SkipPersonalization: true, NoCache: true})
	if err != nil {
		panic(err)
	}
	// Three suggestions from a six-query log: each suggestion exists
	// and is not "sun" itself.
	fmt.Println("suggestions:", len(res.Diversified))
	for _, s := range res.Diversified {
		fmt.Println(s != "sun" && s != "")
	}
	// Output:
	// suggestions: 3
	// true
	// true
	// true
}

// ExampleSyntheticLog generates a deterministic synthetic world and
// inspects its ground truth.
func ExampleSyntheticLog() {
	world := pqsda.SyntheticLog(pqsda.SyntheticConfig{
		Seed: 1, NumUsers: 3, SessionsPerUser: 4, NumFacets: 4,
	})
	fmt.Println("users:", len(world.UserIDs()))
	fmt.Println("facets:", len(world.Facets))
	fmt.Println("entries > 0:", world.Log.Len() > 0)
	// Output:
	// users: 3
	// facets: 4
	// entries > 0: true
}
