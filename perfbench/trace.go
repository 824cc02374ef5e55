package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing. Spans are recorded only in the traced run,
// around the calls the benchmark makes into the program: the client
// request, the router's ServeHTTP, each router→replica attempt (through
// the round tripper the router is given) and each replica's handler. The
// program itself is not instrumented further.

type spanKind uint8

const (
	kindClient spanKind = iota
	kindRouter
	kindAttempt
	kindHandler  // replica /v1/diagnose and /v1/diagnose-batch
	kindFeedback // replica /v1/continual/samples
)

var kindNames = [...]string{"client", "router", "attempt", "handler", "feedback"}

type span struct {
	id, parent, req uint64
	kind            spanKind
	batch           bool // a /v1/diagnose-batch request
	start, end      int64
}

// Headers carrying the request ID and the parent span across hops.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

type spanRef struct{ req, span uint64 }

type spanCtxKey struct{}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	base time.Time
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func parseRef(h http.Header) spanRef {
	req, _ := strconv.ParseUint(h.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseUint(h.Get(hdrSpan), 10, 64)
	return spanRef{req, parent}
}

func setRef(h http.Header, ref spanRef) {
	h.Set(hdrReq, strconv.FormatUint(ref.req, 10))
	h.Set(hdrSpan, strconv.FormatUint(ref.span, 10))
}

// middleware records a span of kind around next and carries the request
// ID and the new span in the request context, where the round tripper
// finds them.
func (r *recorder) middleware(kind spanKind, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		in := parseRef(req.Header)
		s := span{id: r.newID(), parent: in.span, req: in.req, kind: kind,
			batch: strings.HasSuffix(req.URL.Path, "-batch"), start: r.now()}
		if kind == kindHandler && strings.HasPrefix(req.URL.Path, "/v1/continual/") {
			s.kind = kindFeedback
		}
		ctx := context.WithValue(req.Context(), spanCtxKey{}, spanRef{in.req, s.id})
		next.ServeHTTP(w, req.WithContext(ctx))
		s.end = r.now()
		r.add(s)
	})
}

// timingTransport records one attempt span per outbound router request,
// from the round trip's start until the router closes the response body.
type timingTransport struct {
	rec  *recorder
	base *http.Transport
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanCtxKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req) // health probes
	}
	s := span{id: t.rec.newID(), parent: ref.span, req: ref.req, kind: kindAttempt,
		batch: strings.HasSuffix(req.URL.Path, "-batch"), start: t.rec.now()}
	out := req.Clone(req.Context())
	setRef(out.Header, spanRef{ref.req, s.id})
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.end = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// CloseIdleConnections lets Router.Close release the pooled connections.
func (t *timingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTimesMs returns, for every span of kind accepted by keep, its
// duration minus the part of it covered by its child spans, in ms.
func selfTimesMs(spans []span, kind spanKind, keep func(span) bool) []float64 {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.kind != kind || !keep(s) {
			continue
		}
		self := (s.end - s.start) - coveredLen(children[s.id], s.start, s.end)
		out = append(out, float64(self)/1e6)
	}
	return out
}

// durationsMs returns the durations of spans of kind accepted by keep.
func durationsMs(spans []span, kind spanKind, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.kind == kind && keep(s) {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

func anySpan(span) bool { return true }

func batchSpan(s span) bool { return s.batch }

// reset drops the spans recorded so far (the warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// writeSpans saves spans to path, one JSON object a line, with times in
// nanoseconds since the recorder started.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent,omitempty"`
			Req    uint64 `json:"req"`
			Kind   string `json:"kind"`
			Batch  bool   `json:"batch,omitempty"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.id, s.parent, s.req, kindNames[s.kind], s.batch, s.start, s.end}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
