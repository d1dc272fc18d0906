package slo

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"
)

// The flight recorder is the "what did the process look like just
// before the incident" answer: an always-on, fixed-size ring of one
// compact wide event per request. Unlike the trace ring (deep but
// narrow: last 64 span trees), the recorder is shallow but wide — every
// request, every disposition, a few thousand deep — and is dumped as
// JSONL on demand (/debug/flightrecorder) or automatically when an SLO
// enters fast burn, so the dump captures the lead-up rather than the
// aftermath.
//
// Recording must cost nothing on the hot path: a slot is picked with
// one atomic add and claimed under a per-slot seqlock (a CAS and a
// store), and the event struct is all fixed-size fields — IDs and the
// strategy name are inlined byte arrays, not strings — so Record
// performs zero heap allocations (BenchmarkFlightRecorderEmit guards
// this in CI). The flat layout also lets the event be copied in and
// out one machine word at a time with atomic loads and stores, so a
// reader racing a writer sees a torn copy it discards, never a data
// race.

// Outcome classifies one request's disposition.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeError
	OutcomeTimeout
	OutcomeUnknownQuery
	OutcomeBadRequest
	OutcomeShedRate
	OutcomeShedGate
	OutcomeDegraded
	OutcomeDegradedMiss
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeError:
		return "error"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeUnknownQuery:
		return "unknown_query"
	case OutcomeBadRequest:
		return "bad_request"
	case OutcomeShedRate:
		return "shed_rate_limited"
	case OutcomeShedGate:
		return "shed_overloaded"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeDegradedMiss:
		return "degraded_miss"
	default:
		return "unknown"
	}
}

// idLen and strategyLen size the inline identifier fields. Request and
// trace IDs are 16 hex chars (server-generated); longer client-supplied
// IDs are truncated, which is acceptable for a debugging artifact.
const (
	idLen       = 16
	strategyLen = 12
)

// WideEvent is one request's compact record: identity, disposition,
// stage-timing breakdown and the serving context (strategy, generation,
// cache/admission/breaker state). All fields are fixed-size so the ring
// is one flat allocation and recording never touches the heap.
type WideEvent struct {
	// Seq is the global record sequence number (assigned by Record).
	Seq uint64
	// UnixNano is the event time.
	UnixNano int64
	// RequestID and TraceID are inlined, NUL-padded.
	RequestID [idLen]byte
	TraceID   [idLen]byte
	// Strategy is the canonical diversification strategy, NUL-padded.
	Strategy [strategyLen]byte
	// Outcome is the request disposition; Status the HTTP status code.
	Outcome Outcome
	Status  uint16
	// K is the requested suggestion count.
	K uint16
	// Generation is the engine snapshot that served the request.
	Generation uint64
	// Disposition bits.
	CacheHit bool
	Degraded bool
	Brownout bool
	// BreakerState is the admission breaker at record time (0 closed, 1
	// open, 2 half-open); GateDepth the suggest-gate queue depth.
	BreakerState uint8
	GateDepth    int32
	// Stage timings in nanoseconds (zero for stages that did not run).
	TotalNs       int64
	CompactNs     int64
	SolveNs       int64
	HittingNs     int64
	PersonalizeNs int64
}

// SetRequestID/SetTraceID/SetStrategy copy a string into the inline
// field without allocating.
func (e *WideEvent) SetRequestID(s string) { copyID(e.RequestID[:], s) }
func (e *WideEvent) SetTraceID(s string)   { copyID(e.TraceID[:], s) }
func (e *WideEvent) SetStrategy(s string)  { copyID(e.Strategy[:], s) }

func copyID(dst []byte, s string) {
	n := copy(dst, s)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

func idString(b []byte) string {
	n := 0
	for n < len(b) && b[n] != 0 {
		n++
	}
	return string(b[:n])
}

// RequestIDString, TraceIDString and StrategyString decode the inline
// fields (dump path only — they allocate).
func (e *WideEvent) RequestIDString() string { return idString(e.RequestID[:]) }
func (e *WideEvent) TraceIDString() string   { return idString(e.TraceID[:]) }
func (e *WideEvent) StrategyString() string  { return idString(e.Strategy[:]) }

// eventWords is the size of a WideEvent in 8-byte words. The array
// length below fails to compile if the struct stops being a whole
// number of words.
const eventWords = unsafe.Sizeof(WideEvent{}) / 8

var _ [unsafe.Sizeof(WideEvent{}) % 8]struct{} = [0]struct{}{}

// slot is one ring entry under a seqlock: version is odd while a writer
// is copying, and bumps by 2 per publication, so a reader that sees the
// same even version before and after its copy has a consistent event.
// The event is stored as words, each written and read atomically.
type slot struct {
	version atomic.Uint64
	words   [eventWords]atomic.Uint64
}

// store copies ev into the slot word by word.
func (s *slot) store(ev *WideEvent) {
	src := (*[eventWords]uint64)(unsafe.Pointer(ev))
	for i := range s.words {
		s.words[i].Store(src[i])
	}
}

// load copies the slot into ev word by word.
func (s *slot) load(ev *WideEvent) {
	dst := (*[eventWords]uint64)(unsafe.Pointer(ev))
	for i := range s.words {
		dst[i] = s.words[i].Load()
	}
}

// FlightRecorder is the fixed-size wide-event ring.
type FlightRecorder struct {
	slots []slot
	seq   atomic.Uint64
	// dumps counts DumpToDir files written (observability for the
	// auto-dump path).
	dumps atomic.Int64
}

// DefaultFlightRecorderSize holds ~4k requests — tens of seconds of
// lead-up at a few hundred QPS for ~1 MiB of memory.
const DefaultFlightRecorderSize = 4096

// NewFlightRecorder builds a ring of the given capacity (minimum 16;
// ≤ 0 applies the default).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	if size < 16 {
		size = 16
	}
	return &FlightRecorder{slots: make([]slot, size)}
}

// Size reports the ring capacity.
func (r *FlightRecorder) Size() int { return len(r.slots) }

// Recorded reports how many events have ever been recorded.
func (r *FlightRecorder) Recorded() uint64 { return r.seq.Load() }

// Dumps reports how many automatic dump files have been written.
func (r *FlightRecorder) Dumps() int64 { return r.dumps.Load() }

// Record stores one event, overwriting the oldest slot. ev.Seq is
// assigned here. Zero heap allocations; safe for concurrent use. When
// the ring wraps onto a slot another Record is still writing, the
// event is dropped rather than waited for: the claim is a CAS of the
// slot's version from even to odd.
func (r *FlightRecorder) Record(ev *WideEvent) {
	if r == nil {
		return
	}
	n := r.seq.Add(1)
	s := &r.slots[int((n-1)%uint64(len(r.slots)))]
	ev.Seq = n
	v := s.version.Load()
	if v%2 == 1 || !s.version.CompareAndSwap(v, v+1) {
		return // another writer holds the slot
	}
	s.store(ev)
	s.version.Store(v + 2) // even: published
}

// Events returns a consistent copy of the ring's contents, oldest
// first. Slots mid-write (or overwritten during the copy) are skipped —
// under concurrent load the dump is a near-exact window, never a torn
// record.
func (r *FlightRecorder) Events() []WideEvent {
	if r == nil {
		return nil
	}
	out := make([]WideEvent, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 3; attempt++ {
			v1 := s.version.Load()
			if v1 == 0 || v1%2 == 1 {
				break // never written, or a writer is mid-copy
			}
			var ev WideEvent
			s.load(&ev)
			if s.version.Load() == v1 {
				out = append(out, ev)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSONL dumps the ring as one JSON object per line, oldest first.
// The encoding is hand-rolled: every field is a number, bool or
// hex/ASCII identifier, so no reflection or escaping is needed, and the
// dump path cannot disturb the serving path beyond the copy itself.
func (r *FlightRecorder) WriteJSONL(w io.Writer) (int, error) {
	events := r.Events()
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range events {
		buf = appendEventJSON(buf[:0], &events[i])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return i, err
		}
	}
	return len(events), bw.Flush()
}

// appendEventJSON renders one event. Identifier bytes are produced by
// the server (hex) or the strategy registry (lowercase names), so they
// need no JSON escaping.
func appendEventJSON(b []byte, e *WideEvent) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"at":"`...)
	b = time.Unix(0, e.UnixNano).UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","requestId":"`...)
	b = appendID(b, e.RequestID[:])
	b = append(b, `","traceId":"`...)
	b = appendID(b, e.TraceID[:])
	b = append(b, `","outcome":"`...)
	b = append(b, e.Outcome.String()...)
	b = append(b, `","status":`...)
	b = strconv.AppendUint(b, uint64(e.Status), 10)
	b = append(b, `,"strategy":"`...)
	b = appendID(b, e.Strategy[:])
	b = append(b, `","k":`...)
	b = strconv.AppendUint(b, uint64(e.K), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, e.Generation, 10)
	b = append(b, `,"cacheHit":`...)
	b = strconv.AppendBool(b, e.CacheHit)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, e.Degraded)
	b = append(b, `,"brownout":`...)
	b = strconv.AppendBool(b, e.Brownout)
	b = append(b, `,"breakerState":`...)
	b = strconv.AppendUint(b, uint64(e.BreakerState), 10)
	b = append(b, `,"gateDepth":`...)
	b = strconv.AppendInt(b, int64(e.GateDepth), 10)
	b = append(b, `,"totalMs":`...)
	b = appendMs(b, e.TotalNs)
	b = append(b, `,"compactMs":`...)
	b = appendMs(b, e.CompactNs)
	b = append(b, `,"solveMs":`...)
	b = appendMs(b, e.SolveNs)
	b = append(b, `,"hittingMs":`...)
	b = appendMs(b, e.HittingNs)
	b = append(b, `,"personalizeMs":`...)
	b = appendMs(b, e.PersonalizeNs)
	b = append(b, '}')
	return b
}

func appendID(b, id []byte) []byte {
	n := 0
	for n < len(id) && id[n] != 0 {
		n++
	}
	return append(b, id[:n]...)
}

func appendMs(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e6, 'f', 3, 64)
}

// DumpToDir writes the ring to dir as
// flightrecorder-<seq>-<unixnano>.jsonl and returns the file path. The
// server calls this from the fast-burn transition hook, so the file
// holds the requests that led INTO the breach.
func (r *FlightRecorder) DumpToDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flightrecorder-%d-%d.jsonl", r.seq.Load(), time.Now().UnixNano())
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := r.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	r.dumps.Add(1)
	return path, nil
}
