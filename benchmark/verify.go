package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"sort"

	"repro/internal/metrics"
	"repro/internal/querylog"
	"repro/internal/synth"
)

// suggestBody is the part of server.SuggestResponse the verifier reads.
type suggestBody struct {
	Suggestions []string `json:"suggestions"`
	Diversified []string `json:"diversified"`
}

// batchBody is the part of server.BatchSuggestResponse it reads.
type batchBody struct {
	Results []struct {
		Status   int             `json:"status"`
		Response *suggestBody    `json:"response"`
		Error    json.RawMessage `json:"error"`
	} `json:"results"`
}

// served is one verified suggestion list with the item that asked for
// it, kept for the quality scores.
type served struct {
	it          item
	diversified []string
}

// listKey identifies a diversified list: users share them, so only the
// first list per (query, context, age) is kept and scored.
type listKey struct {
	query, ctx string
	age        int64
}

// verdict is what verifying one replay yields.
type verdict struct {
	attempted, failed int
	firstFailure      string
	digest            string
	lists             []served
}

// verify decodes every captured body of one replay, applies the failure
// rules and hashes (request → suggestions) into the digest. A request
// fails on a non-200, an item-level error in a batch, a list shorter
// than k, a duplicate suggestion, or the input query inside its own
// list.
func verify(ops []*request, c *capture) verdict {
	v := verdict{attempted: len(ops)}
	h := sha256.New()
	seen := map[listKey]bool{}
	keep := func(it item, b *suggestBody) {
		if k := (listKey{it.query, it.ctxQuery, int64(it.ctxAge)}); !seen[k] {
			seen[k] = true
			v.lists = append(v.lists, served{it, b.Diversified})
		}
	}
	fail := func(i int, format string, args ...any) {
		v.failed++
		if v.firstFailure == "" {
			v.firstFailure = fmt.Sprintf("op %d: ", i) + fmt.Sprintf(format, args...)
		}
	}
	for i, op := range ops {
		if c.status[i] != http.StatusOK {
			fail(i, "status %d: %s", c.status[i], truncate(c.body(i), 200))
			continue
		}
		switch op.kind {
		case opSuggest:
			var b suggestBody
			if err := json.Unmarshal(c.body(i), &b); err != nil {
				fail(i, "bad suggest body: %v", err)
				continue
			}
			if why := checkList(op.items[0], &b); why != "" {
				fail(i, "%s", why)
			}
			hashList(h, op.items[0], &b)
			keep(op.items[0], &b)
		case opBatch:
			var b batchBody
			if err := json.Unmarshal(c.body(i), &b); err != nil {
				fail(i, "bad batch body: %v", err)
				continue
			}
			if len(b.Results) != len(op.items) {
				fail(i, "batch answered %d of %d items", len(b.Results), len(op.items))
				continue
			}
			why := ""
			for j, res := range b.Results {
				if res.Status != http.StatusOK || res.Response == nil || len(res.Error) > 0 {
					why = fmt.Sprintf("item %d: status %d error %s", j, res.Status, truncate(res.Error, 200))
					break
				}
				if w := checkList(op.items[j], res.Response); w != "" && why == "" {
					why = fmt.Sprintf("item %d: %s", j, w)
				}
				hashList(h, op.items[j], res.Response)
				keep(op.items[j], res.Response)
			}
			if why != "" {
				fail(i, "%s", why)
			}
		}
	}
	v.digest = hex.EncodeToString(h.Sum(nil))
	return v
}

// checkList applies the per-list failure rules; "" means the list is
// good.
func checkList(it item, b *suggestBody) string {
	if len(b.Suggestions) < suggestK {
		return fmt.Sprintf("%q: %d suggestions, want %d", it.query, len(b.Suggestions), suggestK)
	}
	if len(b.Diversified) != len(b.Suggestions) {
		return fmt.Sprintf("%q: %d diversified vs %d personalized", it.query, len(b.Diversified), len(b.Suggestions))
	}
	input := querylog.NormalizeQuery(it.query)
	seen := make(map[string]bool, len(b.Suggestions))
	for _, s := range b.Suggestions {
		if seen[s] {
			return fmt.Sprintf("%q: duplicate suggestion %q", it.query, s)
		}
		seen[s] = true
		if s == input { // suggestions are graph node names: already normalized
			return fmt.Sprintf("%q: suggests its own input", it.query)
		}
	}
	return ""
}

func hashList(h hash.Hash, it item, b *suggestBody) {
	fmt.Fprintf(h, "%s\x1f%s\x1f%s\x1f%d\x1e", it.user, it.query, it.ctxQuery, it.ctxAge)
	for _, s := range b.Suggestions {
		fmt.Fprintf(h, "%s\x1f", s)
	}
	h.Write([]byte{'\x1e'})
	for _, s := range b.Diversified {
		fmt.Fprintf(h, "%s\x1f", s)
	}
	h.Write([]byte{'\x1d'})
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

// quality scores the diversified lists of one replay against the world's
// facets, as internal/experiments' scoreScenario does with
// internal/metrics: α-nDCG@k (α = 0.5) against the greedy ideal over
// the pool of everything served for the same input query, and subtopic
// recall against the input query's generating facets. lists holds each
// distinct (query, context, age) once, as verify keeps them.
func quality(w *synth.World, lists []served) (alphaNDCG, sRecall float64) {
	if len(lists) == 0 {
		return 0, 0
	}
	// Scored in key order, not script order: the pooled ideal breaks ties
	// by pool order and a float sum depends on its order, so two seeds
	// that served the same lists then score the same to the last bit.
	lists = append([]served(nil), lists...)
	sort.Slice(lists, func(i, j int) bool {
		a, b := lists[i].it, lists[j].it
		if a.query != b.query {
			return a.query < b.query
		}
		if a.ctxQuery != b.ctxQuery {
			return a.ctxQuery < b.ctxQuery
		}
		return a.ctxAge < b.ctxAge
	})
	subtopics := func(q string) []int { return w.QueryFacets(querylog.NormalizeQuery(q)) }
	pool := map[string][]string{}
	inPool := map[string]map[string]bool{}
	for _, s := range lists {
		if inPool[s.it.query] == nil {
			inPool[s.it.query] = map[string]bool{}
		}
		for _, sug := range s.diversified {
			if !inPool[s.it.query][sug] {
				inPool[s.it.query][sug] = true
				pool[s.it.query] = append(pool[s.it.query], sug)
			}
		}
	}
	for _, s := range lists {
		alphaNDCG += metrics.AlphaNDCG(s.diversified, pool[s.it.query], subtopics, 0.5)
		sRecall += metrics.SubtopicRecall(s.diversified, subtopics, subtopics(s.it.query))
	}
	n := float64(len(lists))
	return alphaNDCG / n, sRecall / n
}
