// Ambiguous: the paper's motivating "sun" scenario, hand-built. Three
// groups of users share the ambiguous query "sun" but mean different
// things — Sun Microsystems, the star, or the UK newspaper. PQS-DA
// diversifies the suggestions to cover all three facets and then
// personalizes the ranking per user.
//
//	go run ./examples/ambiguous
package main

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// persona describes one interest group: its sessions are issued by
// several users so the facet has real mass in the log.
type persona struct {
	name     string
	users    []string
	sessions [][]step
}

type step struct {
	query string
	click string
}

func main() {
	personas := []persona{
		{
			name:  "developer",
			users: []string{"dev1", "dev2", "dev3", "dev4"},
			sessions: [][]step{
				{{"sun", "java.sun.com"}, {"sun java", "java.sun.com"}, {"jvm download", "www.java.com"}},
				{{"sun java", "java.sun.com"}, {"java tutorial", "www.java.com"}},
				{{"sun oracle", "www.oracle.com"}, {"oracle solaris", "www.oracle.com/solaris"}},
				{{"sun", "www.oracle.com"}, {"sun solaris", "www.oracle.com/solaris"}},
				{{"java garbage collection", "www.java.com/gc"}, {"jvm tuning", "www.java.com/gc"}},
			},
		},
		{
			name:  "astronomer",
			users: []string{"astro1", "astro2", "astro3", "astro4"},
			sessions: [][]step{
				{{"sun", "nasa.gov/sun"}, {"sun solar system", "nasa.gov/sun"}, {"solar flares", "nasa.gov/flares"}},
				{{"sun solar system", "nasa.gov/sun"}, {"planets orbit", "nasa.gov/planets"}},
				{{"solar energy", "energy.gov/solar"}, {"solar panel efficiency", "energy.gov/panels"}},
				{{"sun", "nasa.gov/sun"}, {"sun temperature core", "nasa.gov/sun"}},
				{{"solar flares", "nasa.gov/flares"}, {"aurora forecast", "nasa.gov/aurora"}},
			},
		},
		{
			name:  "news reader",
			users: []string{"news1", "news2", "news3", "news4"},
			sessions: [][]step{
				{{"sun", "thesun.co.uk"}, {"sun daily uk", "thesun.co.uk"}, {"uk headlines today", "thesun.co.uk/news"}},
				{{"sun daily uk", "thesun.co.uk"}, {"premier league gossip", "thesun.co.uk/sport"}},
				{{"sun", "thesun.co.uk"}, {"sun newspaper sport", "thesun.co.uk/sport"}},
				{{"uk headlines today", "thesun.co.uk/news"}, {"celebrity news uk", "thesun.co.uk/tv"}},
			},
		},
	}

	log := buildLog(personas)
	fmt.Printf("hand-built log: %d entries, %d users\n\n", log.Len(), len(log.Users()))

	engine, err := pqsda.NewEngine(log, pqsda.Config{
		CompactBudget:      60,
		Topics:             6, // a few spare topics help Gibbs separate the 3 facets
		TrainingIterations: 200,
		Seed:               7,
	})
	if err != nil {
		panic(err)
	}

	// Diversification alone: one list covering all facets of "sun".
	res, err := engine.Do(context.Background(), pqsda.SuggestRequest{Query: "sun", At: time.Now(), K: 6, SkipPersonalization: true, NoCache: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(`diversified suggestions for "sun" (no user):`)
	for i, s := range res.Diversified {
		fmt.Printf("  %d. %s\n", i+1, s)
	}

	// Personalization: each persona sees its own facet first.
	for _, p := range personas {
		r, err := engine.Do(context.Background(), pqsda.SuggestRequest{
			User: p.users[0], Query: "sun", K: 6,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("\npersonalized for %s (%s):\n", p.users[0], p.name)
		for i, s := range r.Suggestions {
			fmt.Printf("  %d. %s\n", i+1, s)
		}
	}
}

// buildLog converts the persona scripts into a timestamped log: every
// user of a persona replays its sessions at staggered times.
func buildLog(personas []persona) *pqsda.Log {
	log := &pqsda.Log{}
	base := time.Date(2012, 12, 1, 9, 0, 0, 0, time.UTC)
	for pi, p := range personas {
		for ui, user := range p.users {
			clock := base.Add(time.Duration(pi*24+ui*6) * time.Hour)
			for _, sess := range p.sessions {
				for _, st := range sess {
					log.Append(pqsda.Entry{
						UserID: user, Query: st.query, ClickedURL: st.click, Time: clock,
					})
					clock = clock.Add(45 * time.Second)
				}
				clock = clock.Add(3 * time.Hour) // session gap
			}
		}
	}
	return log
}
