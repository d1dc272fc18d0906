package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"syscall"
	"time"
)

// capture holds the responses of one script replay in two flat,
// pointer-free arrays (body bytes end to end, one end offset and one
// status per operation), so that keeping 100 000 bodies for the
// verifier costs the garbage collector nothing to scan and the timed
// region allocates nothing of its own.
type capture struct {
	buf    []byte
	ends   []int
	status []int
	lat    []int64 // handler latency per operation, ns
}

func newCapture(ops, bytesPerOp int) *capture {
	return &capture{
		buf:    make([]byte, 0, ops*bytesPerOp),
		ends:   make([]int, 0, ops),
		status: make([]int, 0, ops),
		lat:    make([]int64, 0, ops),
	}
}

func (c *capture) reset() {
	c.buf, c.ends, c.status, c.lat = c.buf[:0], c.ends[:0], c.status[:0], c.lat[:0]
}

func (c *capture) body(i int) []byte {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.buf[start:c.ends[i]]
}

// recorder is the http.ResponseWriter the client goroutine hands the
// handler: one reused header map, the status, and the body appended to
// the capture.
type recorder struct {
	hdr    http.Header
	status int
	cap    *capture
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.cap.buf = append(r.cap.buf, p...)
	return len(p), nil
}

// cpuChunks is how many stretches of a replay get a CPU reading of
// their own: long enough (tens of milliseconds) that the kernel's
// accounting of the other threads, which lags by up to a scheduler
// tick, is a small share of each.
const cpuChunks = 20

// passStats is what one timed replay measured around the loop.
type passStats struct {
	wall     time.Duration
	chunkCPU []time.Duration // user+sys of the whole process, all threads, per stretch of len(ops)/cpuChunks operations
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
}

// arm readies the POST requests of ops for one more replay: the server
// middleware wraps and drains r.Body, so each use needs a fresh reader.
// GETs are left alone (http.NoBody, never touched by the handler).
func arm(ops []*request) {
	for _, op := range ops {
		if op.body != nil {
			op.req.Body = io.NopCloser(bytes.NewReader(op.body))
		}
	}
}

// replay drives ops through the handler from this one goroutine, closed
// loop: the next request is issued when the previous one has returned.
// Nothing in the loop decodes JSON, builds a request or logs; the body
// lands in c and is verified after the loop. A traced pass hands in a
// tracer and gets one server.handle span per operation, recorded inside
// the loop: that recording is the tracing overhead the run reports.
func replay(h http.Handler, ops []*request, c *capture, tr *tracer) passStats {
	arm(ops)
	c.reset()
	rec := &recorder{hdr: make(http.Header, 4), cap: c}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	chunk := (len(ops) + cpuChunks - 1) / cpuChunks
	chunkCPU := make([]time.Duration, 0, cpuChunks)
	mark := processCPU()
	t0 := time.Now()
	for i, op := range ops {
		if i > 0 && i%chunk == 0 {
			now := processCPU()
			chunkCPU, mark = append(chunkCPU, now-mark), now
		}
		clear(rec.hdr)
		rec.status = 0
		s := time.Now()
		h.ServeHTTP(rec, op.req)
		d := time.Since(s)
		c.lat = append(c.lat, int64(d))
		c.ends = append(c.ends, len(c.buf))
		c.status = append(c.status, rec.status)
		if tr != nil {
			start := int64(s.Sub(tr.t0))
			tr.spans = append(tr.spans, span{"server.handle", start, start + int64(d), len(tr.spans) + 1, 0, i})
		}
	}
	wall := time.Since(t0)
	chunkCPU = append(chunkCPU, processCPU()-mark)
	runtime.ReadMemStats(&m1)
	return passStats{
		wall:     wall,
		chunkCPU: chunkCPU,
		mallocs:  m1.Mallocs - m0.Mallocs,
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

// processCPU is getrusage(RUSAGE_SELF) user+sys: every thread of the
// process, so background GC and any work a change moves off the request
// goroutine still count against cpu_ms_per_req.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
