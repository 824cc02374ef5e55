// Package analysis implements the paper's root-cause analysis service
// (Fig. 1): a central HTTP endpoint that owns the trained inference models
// and serves diagnoses to clients. Clients send their raw measurement
// vectors plus the landmark set they probed; the service answers with the
// coarse family and the ranked root-cause list, using the service's
// specialized model when one exists.
//
// Request execution is delegated to the serving engine
// (internal/serving): handlers validate, then submit into its batched,
// admission-controlled pipeline. Model lifecycle — versions, hot swap,
// rollback — is driven through the engine's registry and exposed on the
// /v1/models admin surface.
package analysis

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/drift"
	"diagnet/internal/obs"
	"diagnet/internal/probe"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
)

// maxRequestBytes bounds a request body (8 MiB — a full 1024-request
// batch is ≈1 MiB of JSON, so this is generous without letting one
// client exhaust memory).
const maxRequestBytes = 8 << 20

// recoverMiddleware turns handler panics into 500s instead of letting one
// bad request kill the whole analysis process. (The route span, which
// lives inside instrument, separately marks the trace as errored — the
// trace survives in the always-keep ring even when this log line scrolls
// away.)
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // deliberate connection abort, not a bug
				}
				slog.ErrorContext(r.Context(), "analysis: panic serving request",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// decodeBody decodes a bounded JSON request body, mapping oversized
// payloads to 413 and malformed JSON to 400. It reports whether decoding
// succeeded (the error response is already written otherwise).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// DiagnoseRequest is the client's payload: the landmark regions probed (in
// feature order) and the raw measurement vector under that layout.
type DiagnoseRequest struct {
	// ServiceID selects a specialized model; -1 or unknown IDs fall back
	// to the general model.
	ServiceID int `json:"service_id"`
	// Landmarks lists the probed landmark regions in feature order.
	Landmarks []int `json:"landmarks"`
	// Features is the raw measurement vector (len(Landmarks)·5 + 5).
	Features []float64 `json:"features"`
	// TopK bounds the returned cause list (default 5).
	TopK int `json:"top_k,omitempty"`
}

// Cause is one ranked root-cause candidate.
type Cause struct {
	Feature int     `json:"feature"`
	Name    string  `json:"name"`
	Family  string  `json:"family"`
	Score   float64 `json:"score"`
}

// DiagnoseResponse is the service's answer.
type DiagnoseResponse struct {
	Family        string    `json:"family"`
	Coarse        []float64 `json:"coarse"`
	UnknownWeight float64   `json:"unknown_weight"`
	Causes        []Cause   `json:"causes"`
	ModelService  int       `json:"model_service"` // -1 = general model
	// ModelVersion names the registry version that served the request;
	// every response is attributable to exactly one version even during a
	// hot swap.
	ModelVersion string `json:"model_version,omitempty"`
}

// ModelInfo describes the loaded models.
type ModelInfo struct {
	KnownRegions    []int  `json:"known_regions"`
	TotalParams     int    `json:"total_params"`
	TrainableParams int    `json:"trainable_params"`
	Specialized     []int  `json:"specialized_services"`
	ActiveVersion   string `json:"active_version,omitempty"`
}

// Server is the analysis service. Requests flow through the serving
// engine's bounded queue, micro-batcher and worker pool; models live in
// the engine's versioned registry and are hot-swapped atomically (so
// SetSpecialized during live traffic is race-free, unlike the old
// per-server model map).
//
// The server feeds every coarse prediction into a drift detector
// (§II-A: networks and services evolve); once EnableDrift has frozen a
// reference window, /v1/drift reports whether the live prediction
// distribution still matches it.
type Server struct {
	engine *serving.Engine

	// ModelDir, when non-empty, is the only directory the POST /v1/models
	// "load" action may read model files from. Empty disables loading over
	// HTTP (versions can still be registered in-process).
	ModelDir string

	// ready gates GET /readyz: false until state recovery and the boot
	// promotion finish, and again once Close starts draining. Liveness
	// (/healthz) stays 204 throughout — the process is alive, just not
	// ready for traffic.
	ready atomic.Bool

	mu    sync.Mutex // guards drift
	drift *drift.Detector

	// loop, when set via AttachContinual, receives every served diagnosis
	// (pseudo-labeled sample + watchdog observation) and backs the
	// /v1/continual control surface.
	loop atomic.Pointer[continual.Controller]

	// profiler, when set via AttachProfiler, backs /v1/profiles and is
	// triggered by diagnetd's local p99 breach watcher.
	profiler atomic.Pointer[obs.Profiler]
}

// NewServer wraps a general model in a default-configured serving engine,
// registered and promoted as version "boot". Call Close to drain it.
func NewServer(general *core.Model) *Server {
	return NewServerWithConfig(general, serving.Config{})
}

// NewServerWithConfig is NewServer with explicit engine tuning.
func NewServerWithConfig(general *core.Model, cfg serving.Config) *Server {
	s := NewServerFromEngine(serving.New(cfg))
	if general != nil {
		if err := s.engine.Registry().AddModel("boot", general); err != nil {
			panic(err) // fresh registry: only a nil model can fail, and that's a caller bug
		}
		if err := s.engine.Registry().Promote("boot"); err != nil {
			panic(fmt.Sprintf("analysis: boot model failed warm-up: %v", err))
		}
		s.SetReady(true)
	}
	return s
}

// NewServerFromEngine wraps an existing engine (whose registry the caller
// has populated, e.g. from -model-dir). The server takes over Close. It
// starts NOT ready: the caller signals SetReady(true) once state
// recovery and the boot promotion are done — until then GET /readyz
// answers 503 so load balancers hold traffic back.
func NewServerFromEngine(e *serving.Engine) *Server {
	return &Server{
		engine: e,
		drift:  drift.NewDetector(int(probe.NumFamilies), drift.Config{}),
	}
}

// SetReady flips the /readyz gate (true once recovery + boot promotion
// are done; Close flips it back before draining).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Ready reports the /readyz gate.
func (s *Server) Ready() bool { return s.ready.Load() }

// Engine exposes the serving engine (registry access, stats).
func (s *Server) Engine() *serving.Engine { return s.engine }

// Close drains the serving engine: queued and in-flight diagnoses finish,
// new submissions get ErrClosed. /readyz flips to 503 before the drain
// starts, so orchestrators stop routing while in-flight work finishes.
func (s *Server) Close() error {
	s.ready.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), serving.DrainTimeout)
	defer cancel()
	return s.engine.Close(ctx)
}

// EnableDrift freezes the drift reference: diagnoses so far form the
// baseline, later ones fill the live window.
func (s *Server) EnableDrift() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drift.Freeze()
}

// DriftStatus returns the detector's verdict.
func (s *Server) DriftStatus() drift.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drift.Status()
}

// AttachProfiler wires the anomaly-triggered profiler behind /v1/profiles
// (404 until attached).
func (s *Server) AttachProfiler(p *obs.Profiler) { s.profiler.Store(p) }

// Profiler returns the attached profiler (nil when profiling is off).
func (s *Server) Profiler() *obs.Profiler { return s.profiler.Load() }

// SetSpecialized registers a per-service model in the active version via
// the registry's copy-on-write snapshot swap — safe under concurrent
// Diagnose traffic.
func (s *Server) SetSpecialized(serviceID int, m *core.Model) error {
	return s.engine.Registry().SetSpecialized(serviceID, m)
}

// writeJSON writes v as a JSON response. v is marshalled before anything
// is written, so a value JSON cannot encode (a NaN float, say) becomes a
// counted 500 with a JSON error body instead of a 200 with an empty one.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(v)
	if err != nil {
		mEncodeErrors.Inc()
		body, _ = json.Marshal(map[string]string{"error": "encode response: " + err.Error()})
		w.WriteHeader(http.StatusInternalServerError)
	}
	_, _ = w.Write(append(body, '\n'))
}

// Handler returns the service's HTTP handler:
//
//	POST /v1/diagnose       → DiagnoseResponse
//	POST /v1/diagnose-batch → BatchResponse
//	GET  /v1/model          → ModelInfo
//	GET  /v1/models         → model registry listing (admin)
//	POST /v1/models         → load / promote / rollback (admin)
//	GET  /v1/continual      → continual-learning loop status (404 when disabled)
//	POST /v1/continual/retrain → trigger a retrain cycle
//	POST /v1/continual/samples → ingest labeled feedback samples
//	GET  /v1/metrics        → telemetry.Snapshot (JSON) or exposition via Accept
//	GET  /metrics           → OpenMetrics text exposition
//	GET  /v1/profiles       → anomaly profile captures (404 when disabled)
//	GET  /v1/traces         → kept-trace summaries (newest first)
//	GET  /v1/traces/{id}    → one trace as a span tree
//	GET  /healthz           → 204 (liveness)
//	GET  /readyz            → 204 ready / 503 recovering or draining
//
// Every /v1 route is instrumented with request/error counters and a
// latency histogram; the aggregate is served by /v1/metrics itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/diagnose", instrument("diagnose", s.handleDiagnose))
	mux.HandleFunc("/v1/diagnose-batch", instrument("diagnose_batch", s.handleBatch))
	mux.HandleFunc("/v1/model", instrument("model", s.handleModel))
	mux.HandleFunc("/v1/models", instrument("models", s.handleModels))
	mux.HandleFunc("/v1/drift", instrument("drift", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.DriftStatus())
	}))
	mux.HandleFunc("/v1/continual", instrument("continual", s.handleContinual))
	mux.HandleFunc("/v1/continual/retrain", instrument("continual_retrain", s.handleContinualRetrain))
	mux.HandleFunc("/v1/continual/samples", instrument("continual_samples", s.handleContinualSamples))
	mux.HandleFunc("/v1/metrics", instrument("metrics", handleMetrics))
	mux.HandleFunc("/v1/traces", instrument("traces", handleTraces))
	mux.HandleFunc("/v1/traces/", instrument("trace", handleTraceByID))
	// The scrape-standard exposition endpoint. Deliberately uninstrumented
	// (like the probes): the federator hits it every sweep interval and
	// would drown the request metrics; it counts its own scrapes instead.
	mux.Handle("/metrics", obs.ExpositionHandler(telemetry.Default()))
	profiles := func(w http.ResponseWriter, r *http.Request) {
		p := s.profiler.Load()
		if p == nil {
			http.Error(w, "profiling disabled", http.StatusNotFound)
			return
		}
		p.ServeHTTP(w, r)
	}
	mux.HandleFunc("/v1/profiles", profiles)
	mux.HandleFunc("/v1/profiles/", profiles)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	// Readiness is distinct from liveness: 503 until state recovery
	// completes, 204 while serving, 503 again while draining. Kept out of
	// the instrumented routes — probes fire every few seconds and would
	// drown the request metrics.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return recoverMiddleware(mux)
}

// BatchRequest carries several diagnosis requests at once (bulk
// post-mortem analysis of recorded incidents).
type BatchRequest struct {
	Requests []DiagnoseRequest `json:"requests"`
}

// BatchResponse answers a BatchRequest; Errors[i] is non-empty when
// Requests[i] was invalid (its Responses[i] is then null).
type BatchResponse struct {
	Responses []*DiagnoseResponse `json:"responses"`
	Errors    []string            `json:"errors"`
}

// maxBatch bounds a single batch request.
const maxBatch = 1024

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 || len(req.Requests) > maxBatch {
		http.Error(w, fmt.Sprintf("batch size must be in [1, %d]", maxBatch), http.StatusBadRequest)
		return
	}
	mBatchSize.Observe(float64(len(req.Requests)))
	resp := BatchResponse{
		Responses: make([]*DiagnoseResponse, len(req.Requests)),
		Errors:    make([]string, len(req.Requests)),
	}
	// Validate every sample, then submit the valid ones as one group: the
	// engine enqueues it whole (blocking admission, so a big batch squeezes
	// through a small queue) and answers in input order.
	subs := make([]*serving.Request, 0, len(req.Requests))
	idx := make([]int, 0, len(req.Requests))
	for i := range req.Requests {
		sub, err := s.prepare(&req.Requests[i])
		if err != nil {
			resp.Errors[i] = err.Error()
			continue
		}
		subs = append(subs, sub)
		idx = append(idx, i)
	}
	results, errs := s.engine.SubmitBatch(r.Context(), subs)
	for j, i := range idx {
		if errs[j] != nil {
			resp.Errors[i] = errs[j].Error()
			continue
		}
		resp.Responses[i] = s.finish(&req.Requests[i], subs[j], results[j])
	}
	writeJSON(w, resp)
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req DiagnoseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.diagnose(r.Context(), &req, false)
	switch {
	case err == nil:
		writeJSON(w, resp)
	case errors.Is(err, serving.ErrQueueFull):
		// Admission control: tell the client when to come back instead of
		// letting the queue convoy collapse tail latency for everyone.
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, serving.ErrClosed):
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The client's deadline expired while queued; 503 lets a proxy
		// distinguish "shed" from "bad request".
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// retryAfter is the backoff a shed request is told to wait: the smallest
// Retry-After (1 s resolution) — the engine takes whatever is queued
// without waiting, so a full queue drains well within it.
const retryAfter = "1"

// Diagnose runs the pipeline on a request (also usable in-process). It
// blocks for queue space rather than shedding; HTTP handlers instead pass
// their request context and shed on overflow.
func (s *Server) Diagnose(req *DiagnoseRequest) (*DiagnoseResponse, error) {
	return s.diagnose(context.Background(), req, true)
}

// diagnose validates, submits to the serving engine and shapes the reply.
func (s *Server) diagnose(ctx context.Context, req *DiagnoseRequest, blocking bool) (*DiagnoseResponse, error) {
	sub, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	var res *serving.Result
	if blocking {
		res, err = s.engine.SubmitWait(ctx, sub)
	} else {
		res, err = s.engine.Submit(ctx, sub)
	}
	if err != nil {
		return nil, err
	}
	return s.finish(req, sub, res), nil
}

// prepare validates a request against the active model and turns it into
// an engine submission.
func (s *Server) prepare(req *DiagnoseRequest) (*serving.Request, error) {
	if len(req.Landmarks) == 0 {
		return nil, fmt.Errorf("analysis: no landmarks in request")
	}
	layout := probe.NewLayout(req.Landmarks)
	if len(req.Features) != layout.NumFeatures() {
		return nil, fmt.Errorf("analysis: %d features for %d landmarks (want %d)",
			len(req.Features), len(req.Landmarks), layout.NumFeatures())
	}
	bundle, _, err := s.engine.Registry().ActiveBundle()
	if err != nil {
		return nil, err
	}
	// Regions outside the model's deployment layout are unrepresentable in
	// the ensemble's cause space — reject them as a client error instead of
	// panicking deep inside the re-indexing (found by FuzzHandleDiagnose).
	if err := layout.Validate(bundle.General.FullLayout); err != nil {
		return nil, fmt.Errorf("analysis: bad landmark list: %w", err)
	}
	return &serving.Request{ServiceID: req.ServiceID, Layout: layout, Features: req.Features}, nil
}

// finish feeds a served diagnosis to the drift detector and the continual
// tap and shapes the reply.
func (s *Server) finish(req *DiagnoseRequest, sub *serving.Request, res *serving.Result) *DiagnoseResponse {
	diag := res.Diagnosis
	s.mu.Lock()
	s.drift.Observe(diag.Coarse)
	s.mu.Unlock()
	if ctrl := s.loop.Load(); ctrl != nil {
		s.feedContinual(ctrl, req, diag)
	}

	layout := sub.Layout
	topK := req.TopK
	if topK <= 0 {
		topK = 5
	}
	if topK > layout.NumFeatures() {
		topK = layout.NumFeatures()
	}
	resp := &DiagnoseResponse{
		Family:        diag.Family.String(),
		Coarse:        diag.Coarse,
		UnknownWeight: diag.UnknownWeight,
		ModelService:  res.ModelService,
		ModelVersion:  res.Version,
	}
	for _, j := range diag.Ranked()[:topK] {
		resp.Causes = append(resp.Causes, Cause{
			Feature: j,
			Name:    layout.FeatureName(j),
			Family:  layout.FamilyOf(j).String(),
			Score:   diag.Final[j],
		})
	}
	return resp
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	bundle, version, err := s.engine.Registry().ActiveBundle()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	total, trainable := bundle.General.ParamCount()
	info := ModelInfo{
		KnownRegions:    append([]int(nil), bundle.General.TrainLayout.Landmarks...),
		TotalParams:     total,
		TrainableParams: trainable,
		ActiveVersion:   version,
	}
	for id := range bundle.Specialized {
		info.Specialized = append(info.Specialized, id)
	}
	sort.Ints(info.Specialized)
	writeJSON(w, info)
}
