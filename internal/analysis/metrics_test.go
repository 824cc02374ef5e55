package analysis

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diagnet/internal/telemetry"
)

// fetchSnapshot GETs /v1/metrics and decodes it.
func fetchSnapshot(t *testing.T, baseURL string) telemetry.Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics content type %q", ct)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestMetricsEndpoint is the acceptance check for the telemetry tentpole:
// after serving traffic, GET /v1/metrics must report per-route latency
// percentiles and the per-stage Diagnose timings recorded by internal/core.
// The registry is process-wide and shared across tests, so everything is
// asserted as a delta against a baseline snapshot.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newService(t)
	before := fetchSnapshot(t, ts.URL)

	req := sampleRequest(t)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("diagnose status %d", resp.StatusCode)
		}
	}
	// One failing request must move the error counter.
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// And one batch request must feed the batch-size histogram.
	batch, err := json.Marshal(map[string]any{"requests": []any{req, req}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/diagnose-batch", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	after := fetchSnapshot(t, ts.URL)

	if d := after.Counters["http.diagnose.requests"] - before.Counters["http.diagnose.requests"]; d != n+1 {
		t.Fatalf("diagnose request delta %d, want %d", d, n+1)
	}
	if d := after.Counters["http.diagnose.errors"] - before.Counters["http.diagnose.errors"]; d != 1 {
		t.Fatalf("diagnose error delta %d, want 1", d)
	}

	// Per-route latency percentiles.
	lat := after.Histograms["http.diagnose.latency_ms"]
	if lat.Count-before.Histograms["http.diagnose.latency_ms"].Count != n+1 {
		t.Fatalf("latency observations %d -> %d, want +%d",
			before.Histograms["http.diagnose.latency_ms"].Count, lat.Count, n+1)
	}
	if !(lat.P50 > 0 && lat.P50 <= lat.P90 && lat.P90 <= lat.P99) {
		t.Fatalf("latency percentiles not ordered: p50=%v p90=%v p99=%v", lat.P50, lat.P90, lat.P99)
	}

	// Per-stage Diagnose timings from internal/core. Requests now run
	// through the serving engine's fused batched passes: normalize and
	// total are marked once per micro-batch (at least one pass must have
	// happened), while the per-row stages still mark every sample — the
	// batch endpoint contributes 2 more samples on top of the n singles.
	perPass := []string{
		"core.diagnose.stage.normalize_ms",
		"core.diagnose.total_ms",
	}
	for _, name := range perPass {
		d := after.Histograms[name].Count - before.Histograms[name].Count
		if d < 1 {
			t.Fatalf("stage %s observed %d times, want >= 1", name, d)
		}
	}
	perSample := []string{
		"core.diagnose.stage.forward_gradient_ms",
		"core.diagnose.stage.weighting_ms",
		"core.diagnose.stage.ensemble_ms",
	}
	for _, name := range perSample {
		d := after.Histograms[name].Count - before.Histograms[name].Count
		if d < n+2 {
			t.Fatalf("stage %s observed %d times, want >= %d", name, d, n+2)
		}
	}
	if d := after.Counters["core.diagnose.calls"] - before.Counters["core.diagnose.calls"]; d < n+2 {
		t.Fatalf("core.diagnose.calls delta %d, want >= %d", d, n+2)
	}

	// Batch sizes are recorded.
	if d := after.Histograms["http.diagnose_batch.size"].Count - before.Histograms["http.diagnose_batch.size"].Count; d != 1 {
		t.Fatalf("batch size delta %d, want 1", d)
	}
	// The in-flight gauge exists; while /v1/metrics itself is being served
	// it reads at least 1 (the metrics request is instrumented too).
	if got, ok := after.Gauges["http.inflight"]; !ok || got < 1 {
		t.Fatalf("http.inflight gauge = %v, present=%v", got, ok)
	}
}

func TestMetricsEndpointMethod(t *testing.T) {
	_, ts := newService(t)
	resp, err := http.Post(ts.URL+"/v1/metrics", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics status %d", resp.StatusCode)
	}
}

// TestWriteJSONEncodeFailure pins the encode-error path: a value JSON
// cannot encode (a NaN field) must yield a counted 500 with a JSON error
// body, not a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	before := mEncodeErrors.Value()
	rec := httptest.NewRecorder()
	writeJSON(rec, struct{ Score float64 }{math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("error body %q not a JSON error (%v)", rec.Body.String(), err)
	}
	if got := mEncodeErrors.Value() - before; got != 1 {
		t.Fatalf("encode errors counted %d times, want 1", got)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, struct{ Score float64 }{0.5})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"Score\":0.5}\n" {
		t.Fatalf("encodable value: %d %q", rec.Code, rec.Body.String())
	}
}
