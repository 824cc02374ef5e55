package analysis

import (
	"fmt"
	"net/http"

	"diagnet/internal/obs"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// Per-route HTTP metrics (DESIGN.md §10): request and error counters, a
// latency histogram, plus service-wide gauges. Resolved once at init so
// the serving path pays only atomic operations.
var (
	mInflight  = telemetry.Default().Gauge("http.inflight")
	mBatchSize = telemetry.Default().Histogram("http.diagnose_batch.size", telemetry.SizeBuckets)
	// mEncodeErrors counts responses that failed JSON encoding (writeJSON).
	mEncodeErrors = telemetry.Default().Counter("http.encode_errors")
)

// routeMetrics is one route's instrumentation bundle.
type routeMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

func newRouteMetrics(name string) *routeMetrics {
	return &routeMetrics{
		requests: telemetry.Default().Counter("http." + name + ".requests"),
		errors:   telemetry.Default().Counter("http." + name + ".errors"),
		latency:  telemetry.Default().Histogram("http."+name+".latency_ms", nil),
	}
}

// statusRecorder captures the response status for error counting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the route's counters, latency histogram
// and the shared in-flight gauge, and opens the route's trace span: an
// incoming W3C traceparent header continues the caller's trace, otherwise
// the route starts a fresh local root. The response echoes the trace ID in
// X-Trace-Id so a client can fetch its own trace from /v1/traces/{id}, and
// the route latency histogram captures the trace ID as its tail exemplar.
// Panics still propagate to the recover middleware; the deferred block
// keeps the gauge, counters and span consistent on that path too (a panic
// counts as an error).
func instrument(name string, next http.HandlerFunc) http.HandlerFunc {
	m := newRouteMetrics(name)
	return func(w http.ResponseWriter, r *http.Request) {
		m.requests.Inc()
		mInflight.Add(1)
		clock := telemetry.StartStages()
		ctx := tracing.Extract(r.Context(), r.Header)
		ctx, span := tracing.StartSpan(ctx, "http."+name)
		span.SetAttr("http.method", r.Method)
		span.SetAttr("http.path", r.URL.Path)
		if id := span.TraceID(); id != "" {
			w.Header().Set("X-Trace-Id", id)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		finished := false
		defer func() {
			mInflight.Add(-1)
			clock.DoneExemplar(m.latency, span.TraceID())
			if !finished || rec.status >= 400 {
				m.errors.Inc()
			}
			span.SetAttr("http.status", rec.status)
			switch {
			case !finished:
				span.SetError(fmt.Errorf("panic serving %s", r.URL.Path))
			case rec.status >= 500:
				span.SetError(fmt.Errorf("http %d", rec.status))
			}
			span.End()
		}()
		next(rec, r.WithContext(ctx))
		finished = true
	}
}

// handleMetrics serves the process-wide telemetry snapshot: per-route
// request counts and latency percentiles, per-stage Diagnose timings
// (recorded by internal/core), probing-plane and training metrics — one
// JSON document, cheap enough to scrape every few seconds. Clients that
// Accept the Prometheus/OpenMetrics text format get the exposition
// instead (same data, scrape-standard shape); the JSON default stays
// byte-compatible for diagnet-top and older tooling.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if obs.WantsExposition(r) {
		obs.ServeExposition(w, r, telemetry.Default())
		return
	}
	writeJSON(w, telemetry.Default().Snapshot())
}
