package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/querylog"
	"repro/internal/synth"
)

// Suggestion count and batch shape shared by every workload.
const (
	suggestK   = 10
	batchLanes = 32
	zipfS      = 1.1
	// laneAgeStep spaces the timed lanes' context ages one Eq. 7 bucket
	// apart (the half-life is 60 s, quantized to quarters); laneAgeOffset
	// puts each age mid-bucket, clear of the floating-point boundary.
	laneAgeStep   = 15 * time.Second
	laneAgeOffset = 7 * time.Second
	// warmContextAge is the context age of hot_batch's warm-up items:
	// Eq. 7 bucket 40, outside the timed items' buckets 1..32, so the
	// warm-up fills the compact cache without touching a single timed
	// suggestion-cache key.
	warmContextAge = 40*laneAgeStep + laneAgeOffset
	// readWriteStep is how far `at` advances per read_write operation.
	readWriteStep = 20 * time.Second
	// logsPerCycle click events precede each refresh of read_write.
	logsPerCycle = 10
)

// The workloads of BENCHMARK.json that have a script.
const (
	wlHeadCached = "head_cached"
	wlTailCold   = "tail_cold"
	wlHotBatch   = "hot_batch"
	wlReadWrite  = "read_write"
)

type opKind uint8

const (
	opSuggest opKind = iota
	opBatch
	opLog
	opRefresh
)

// item is one suggestion list the script asks for: a GET carries one, a
// batch payload one per lane. It is what the verifier checks the
// response against, and what the traced run replays through
// Engine.Do and the stage functions.
type item struct {
	user, query string
	ctxQuery    string // "" = no search context
	ctxAge      time.Duration
	at          time.Time
}

// request is one pre-built HTTP exchange: the parsed *http.Request a
// server would hand its handler for these bytes, plus the body to
// re-arm before each use. GETs carry no body and are shared by every
// script position that repeats them; the handler never mutates them.
type request struct {
	kind  opKind
	req   *http.Request
	body  []byte
	items []item
}

// script is one workload's request sequence per pass. probe, where a
// workload has one, is replayed untimed after the last pass's timed
// part: a fixed set of requests whose lists the quality metrics score.
type script struct {
	warmup, timed, probe []*request
}

// sizes are the per-pass operation counts of the four scripts at
// -seconds 10 on the reference 2-core box (≈1–2 s of timed work each).
// Scripts are count-based: -seconds scales the counts, never a clock,
// so one (workload, seed, seconds) triple is always the same work.
type sizes struct {
	head                    int // how many of the most frequent queries are "the head"
	headWarm, headTimed     int
	tailWarm, tailTimed     int
	batchPairs              int
	rwWarm, rwCycles, rwOps int // rwOps per cycle, refresh included
}

func fullSizes(seconds int) sizes {
	scale := func(n int) int {
		v := n * seconds / 10
		if v < 1 {
			v = 1
		}
		return v
	}
	s := sizes{
		head:     200,
		headWarm: scale(2000), headTimed: scale(40000),
		tailWarm: 50, tailTimed: scale(400),
		batchPairs: scale(64),
		rwWarm:     50, rwCycles: 5, rwOps: scale(400),
	}
	// 120 pairs stay below the 128-entry compact cache; more would turn
	// hot_batch into a second cold workload.
	if s.batchPairs > 120 {
		s.batchPairs = 120
	}
	if s.rwOps < logsPerCycle+2 {
		s.rwOps = logsPerCycle + 2
	}
	return s
}

// populationSeed draws which tail queries tail_cold asks and which
// (query, context) pairs hot_batch asks. Like the world they are the
// fixture: --seed draws who asks and in what order (and, on the head
// workloads, the Zipf stream), so every seed's run does the same kernel
// work and scores the same lists. What varies between seeds is then
// what the driver's ten-seed spread is meant to show — the measurement
// — not which queries happened to be sampled.
const populationSeed = 1

// scriptBuilder turns a world and a seed into request sequences. It
// reads the generated log and ground truth only.
type scriptBuilder struct {
	rng   *rand.Rand
	users []string
	pools queryPools
	at    time.Time // submission time of every request outside read_write
	last  time.Time // the log's last timestamp (read_write's clock origin)
	gets  map[string]*request
	world *synth.World
}

func newScriptBuilder(w *synth.World, seed int64, head int) *scriptBuilder {
	_, end := w.TimeSpan()
	_, last, _ := w.Log.TimeRange()
	return &scriptBuilder{
		rng:   rand.New(rand.NewSource(seed)),
		users: w.UserIDs(),
		pools: splitQueries(w.Log, head),
		at:    end.UTC(),
		last:  last.UTC(),
		gets:  map[string]*request{},
		world: w,
	}
}

func (b *scriptBuilder) build(workload string, sz sizes) (script, error) {
	switch workload {
	case wlHeadCached:
		return b.headCached(sz)
	case wlTailCold:
		return b.tailCold(sz)
	case wlHotBatch:
		return b.hotBatch(sz)
	case wlReadWrite:
		return b.readWrite(sz)
	}
	return script{}, fmt.Errorf("no script for workload %q", workload)
}

func (b *scriptBuilder) user() string { return b.users[b.rng.Intn(len(b.users))] }

// headZipf draws head-query ranks ~ Zipf(s = 1.1) over the head.
func (b *scriptBuilder) headZipf() *rand.Zipf {
	return rand.NewZipf(b.rng, zipfS, 1, uint64(len(b.pools.head)-1))
}

// headCached: every distinct head query once (so the timed region can
// only hit), then Zipf traffic; timed Zipf traffic, users uniform.
func (b *scriptBuilder) headCached(sz sizes) (script, error) {
	if len(b.pools.head) == 0 {
		return script{}, fmt.Errorf("world has no queries")
	}
	var s script
	for _, q := range b.pools.head {
		s.warmup = append(s.warmup, b.get(item{user: b.user(), query: q, at: b.at}))
	}
	z := b.headZipf()
	for i := 0; i < sz.headWarm; i++ {
		s.warmup = append(s.warmup, b.get(item{user: b.user(), query: b.pools.head[z.Uint64()], at: b.at}))
	}
	for i := 0; i < sz.headTimed; i++ {
		s.timed = append(s.timed, b.get(item{user: b.user(), query: b.pools.head[z.Uint64()], at: b.at}))
	}
	s.probe = b.headProbe(b.at)
	return s, nil
}

// headProbe asks every head query once, as the first user.
func (b *scriptBuilder) headProbe(at time.Time) []*request {
	probe := make([]*request, len(b.pools.head))
	for i, q := range b.pools.head {
		probe[i] = b.get(item{user: b.users[0], query: q, at: at})
	}
	return probe
}

// tailCold: distinct tail queries, a fixed sample without replacement
// of the tail; the warm-up is the head of the same sample, so it is
// disjoint from the timed part. The seed draws the users and the order
// of the timed part.
func (b *scriptBuilder) tailCold(sz sizes) (script, error) {
	need := sz.tailWarm + sz.tailTimed
	if len(b.pools.tail) < need {
		return script{}, fmt.Errorf("tail has %d queries with freq >= 2 below the head, script needs %d", len(b.pools.tail), need)
	}
	sample := rand.New(rand.NewSource(populationSeed)).Perm(len(b.pools.tail))[:need]
	var s script
	for _, p := range sample[:sz.tailWarm] {
		s.warmup = append(s.warmup, b.get(item{user: b.user(), query: b.pools.tail[p], at: b.at}))
	}
	timed := sample[sz.tailWarm:]
	for _, i := range b.rng.Perm(len(timed)) {
		s.timed = append(s.timed, b.get(item{user: b.user(), query: b.pools.tail[timed[i]], at: b.at}))
	}
	return s, nil
}

// hotBatch: a fixed sample of distinct (query, context query) pairs
// from the head, in an order the seed draws. The warm-up posts one
// single-item payload per pair; the timed part posts one 32-lane
// payload per pair whose lanes share the pair — one solve signature —
// and differ in user (drawn by the seed) and context age.
func (b *scriptBuilder) hotBatch(sz sizes) (script, error) {
	head := b.pools.head
	if len(head) < 2 || sz.batchPairs > len(head)*(len(head)-1) {
		return script{}, fmt.Errorf("head has %d queries, hot_batch needs %d distinct pairs", len(head), sz.batchPairs)
	}
	type pair struct{ q, c int }
	pop := rand.New(rand.NewSource(populationSeed))
	seen := map[pair]bool{}
	var pairs []pair
	for len(pairs) < sz.batchPairs {
		p := pair{pop.Intn(len(head)), pop.Intn(len(head))}
		if p.q != p.c && !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	var s script
	for _, i := range b.rng.Perm(len(pairs)) {
		p := pairs[i]
		warm := []item{{user: b.user(), query: head[p.q], ctxQuery: head[p.c], ctxAge: warmContextAge, at: b.at}}
		r, err := b.batch(warm)
		if err != nil {
			return script{}, err
		}
		s.warmup = append(s.warmup, r)
		lanes := make([]item, batchLanes)
		for j := range lanes {
			lanes[j] = item{user: b.user(), query: head[p.q], ctxQuery: head[p.c],
				ctxAge: time.Duration(j+1)*laneAgeStep + laneAgeOffset, at: b.at}
		}
		if r, err = b.batch(lanes); err != nil {
			return script{}, err
		}
		s.timed = append(s.timed, r)
	}
	return s, nil
}

// readWrite: head reads beside writes. Each cycle is reads, then
// logsPerCycle click events, then one delta refresh; `at` advances
// readWriteStep per operation from the log's last timestamp, so the
// recorded traffic sessionizes like the log it extends.
func (b *scriptBuilder) readWrite(sz sizes) (script, error) {
	if len(b.pools.head) == 0 {
		return script{}, fmt.Errorf("world has no queries")
	}
	inHead := map[string]bool{}
	for _, q := range b.pools.head {
		inHead[q] = true
	}
	var clicks []querylog.Entry
	for _, e := range b.world.Log.Entries {
		if e.ClickedURL != "" && inHead[querylog.NormalizeQuery(e.Query)] {
			clicks = append(clicks, e)
		}
	}
	if len(clicks) == 0 {
		return script{}, fmt.Errorf("no head query of the world has a click")
	}
	// What is read and clicked, by whom and with which `at`, is fixed
	// cycle by cycle; the seed draws the order of arrival within the
	// cycle. The log the server records is then the same set of entries
	// for every seed, and so is every snapshot built from it.
	pop := rand.New(rand.NewSource(populationSeed))
	z := rand.NewZipf(pop, zipfS, 1, uint64(len(b.pools.head)-1))
	now := b.last
	reads := func(n int) []*request {
		draws := make([]item, n)
		for i := range draws {
			now = now.Add(readWriteStep)
			draws[i] = item{user: b.users[pop.Intn(len(b.users))], query: b.pools.head[z.Uint64()], at: now}
		}
		out := make([]*request, 0, n)
		for _, i := range b.rng.Perm(n) {
			out = append(out, b.get(draws[i]))
		}
		return out
	}
	var s script
	s.warmup = reads(sz.rwWarm)
	for c := 0; c < sz.rwCycles; c++ {
		s.timed = append(s.timed, reads(sz.rwOps-logsPerCycle-1)...)
		events := make([]*request, logsPerCycle)
		for i := range events {
			now = now.Add(readWriteStep)
			e := clicks[pop.Intn(len(clicks))]
			body, err := json.Marshal(map[string]string{
				"user": b.users[pop.Intn(len(b.users))], "query": e.Query, "clickedUrl": e.ClickedURL, "at": now.Format(time.RFC3339),
			})
			if err != nil {
				return script{}, err
			}
			if events[i], err = post(opLog, "/v1/log", body, nil); err != nil {
				return script{}, err
			}
		}
		for _, i := range b.rng.Perm(logsPerCycle) {
			s.timed = append(s.timed, events[i])
		}
		r, err := post(opRefresh, "/v1/refresh", []byte(`{"mode":"graphs","build":"delta"}`), nil)
		if err != nil {
			return script{}, err
		}
		s.timed = append(s.timed, r)
	}
	s.probe = b.headProbe(now.Add(readWriteStep))
	return s, nil
}

// get returns the shared pre-built GET /v1/suggest for the item.
func (b *scriptBuilder) get(it item) *request {
	v := url.Values{}
	v.Set("user", it.user)
	v.Set("q", it.query)
	v.Set("k", strconv.Itoa(suggestK))
	v.Set("at", it.at.Format(time.RFC3339))
	target := "/v1/suggest?" + v.Encode()
	if r, ok := b.gets[target]; ok {
		return r
	}
	req, err := parseRequest([]byte("GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n"))
	if err != nil {
		panic(err) // the request line is built from url.Values above
	}
	r := &request{kind: opSuggest, req: req, items: []item{it}}
	b.gets[target] = r
	return r
}

// wireSuggest is one batch lane on the wire (server.SuggestRequest's
// JSON shape, spelled out so the script owns its bytes).
type wireSuggest struct {
	User    string        `json:"user"`
	Query   string        `json:"query"`
	K       int           `json:"k"`
	Context []wireContext `json:"context,omitempty"`
	At      string        `json:"at"`
}

type wireContext struct {
	Query string `json:"query"`
	At    string `json:"at"`
}

func (b *scriptBuilder) batch(items []item) (*request, error) {
	lanes := make([]wireSuggest, len(items))
	for i, it := range items {
		lanes[i] = wireSuggest{User: it.user, Query: it.query, K: suggestK, At: it.at.Format(time.RFC3339)}
		if it.ctxQuery != "" {
			lanes[i].Context = []wireContext{{Query: it.ctxQuery, At: it.at.Add(-it.ctxAge).Format(time.RFC3339)}}
		}
	}
	body, err := json.Marshal(map[string]any{"requests": lanes})
	if err != nil {
		return nil, err
	}
	return post(opBatch, "/v1/suggest/batch", body, items)
}

func post(kind opKind, path string, body []byte, items []item) (*request, error) {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	req, err := parseRequest(append([]byte(head), body...))
	if err != nil {
		return nil, err
	}
	return &request{kind: kind, req: req, body: body, items: items}, nil
}

// parseRequest parses the bytes a network client would send into the
// *http.Request net/http's server would hand the handler.
func parseRequest(raw []byte) (*http.Request, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return nil, err
	}
	req.RemoteAddr = "127.0.0.1:49152"
	return req, nil
}
