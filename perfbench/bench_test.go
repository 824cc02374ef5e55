package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/probe"
)

func TestMain(m *testing.M) {
	// The fleet logs every readiness change at info.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.99, 3.97}, {1, 4}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestCoveredLen(t *testing.T) {
	// Overlapping children (a hedge racing its primary) count once, and
	// only inside the parent.
	ivs := []interval{{10, 30}, {20, 40}, {90, 120}, {-5, 2}}
	if got := coveredLen(ivs, 0, 100); got != 2+30+10 {
		t.Errorf("coveredLen = %d, want 42", got)
	}
	if got := coveredLen(nil, 0, 100); got != 0 {
		t.Errorf("coveredLen(nil) = %d", got)
	}
}

func TestSelfTimes(t *testing.T) {
	const msNs = int64(time.Millisecond)
	spans := []span{
		{id: 1, kind: kindRouter, start: 0, end: 10 * msNs},
		{id: 2, parent: 1, kind: kindAttempt, start: 1 * msNs, end: 6 * msNs},
		{id: 3, parent: 1, kind: kindAttempt, start: 4 * msNs, end: 8 * msNs}, // hedge
		{id: 4, parent: 2, kind: kindHandler, start: 2 * msNs, end: 5 * msNs},
		{id: 5, kind: kindRouter, batch: true, start: 20 * msNs, end: 30 * msNs},
	}
	got := selfTimesMs(spans, kindRouter, anySpan)
	if len(got) != 2 || got[0] != 3 || got[1] != 10 {
		t.Errorf("router self times = %v, want [3 10]", got)
	}
	if got := selfTimesMs(spans, kindAttempt, anySpan); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("attempt self times = %v, want [2 4]", got)
	}
	if got := selfTimesMs(spans, kindRouter, batchSpan); len(got) != 1 || got[0] != 10 {
		t.Errorf("batch router self times = %v, want [10]", got)
	}
}

// testKey builds a pool of requests on the full layout with the given
// causes and a key whose top cause is feature i for request i.
func testKey(causes []int) ([]poolReq, *answerKey) {
	layout := probe.FullLayout()
	nf := layout.NumFeatures()
	pool := make([]poolReq, len(causes))
	key := newAnswerKey(pool)
	key.entries[bootVersion] = make([]*keyEntry, len(causes))
	for i, c := range causes {
		pool[i] = poolReq{layout: layout, cause: c, req: analysis.DiagnoseRequest{ServiceID: -1}}
		final := make([]float64, nf)
		for j := range final {
			final[j] = float64(nf-j) / float64(nf) / 10
		}
		final[i] = 1
		top := []int{i}
		for j := 0; len(top) < topK; j++ {
			if j != i {
				top = append(top, j)
			}
		}
		key.entries[bootVersion][i] = &keyEntry{diag: &core.Diagnosis{Final: final, Coarse: make([]float64, probe.NumFamilies)},
			family: probe.FamNominal.String(), service: -1, top: top}
	}
	return pool, key
}

// answerFor is the response a correct replica gives for request i.
func answerFor(pool []poolReq, key *answerKey, i int) *analysis.DiagnoseResponse {
	k, _ := key.entry(bootVersion, i)
	return keyResponse(&pool[i], k)
}

func TestCheckAnswerCatchesCorruption(t *testing.T) {
	pool, keys := testKey([]int{0, 1})
	nf := pool[0].layout.NumFeatures()
	k, _ := keys.entry(bootVersion, 0)
	if err := checkAnswer(summarize(answerFor(pool, keys, 0), nf), k); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	corrupt := map[string]func(r *analysis.DiagnoseResponse){
		"wrong cause":    func(r *analysis.DiagnoseResponse) { r.Causes[0].Feature = 7 },
		"wrong score":    func(r *analysis.DiagnoseResponse) { r.Causes[1].Score += 0.01 },
		"NaN score":      func(r *analysis.DiagnoseResponse) { r.Causes[2].Score = math.NaN() },
		"bad family":     func(r *analysis.DiagnoseResponse) { r.Family = "gremlins" },
		"other family":   func(r *analysis.DiagnoseResponse) { r.Family = probe.Family(1).String() },
		"no version":     func(r *analysis.DiagnoseResponse) { r.ModelVersion = "" },
		"wrong model":    func(r *analysis.DiagnoseResponse) { r.ModelService = 3 },
		"short causes":   func(r *analysis.DiagnoseResponse) { r.Causes = r.Causes[:2] },
		"feature range":  func(r *analysis.DiagnoseResponse) { r.Causes[4].Feature = nf },
		"inf weight":     func(r *analysis.DiagnoseResponse) { r.UnknownWeight = math.Inf(1) },
		"coarse missing": func(r *analysis.DiagnoseResponse) { r.Coarse = nil },
	}
	for name, fn := range corrupt {
		r := answerFor(pool, keys, 0)
		fn(r)
		if err := checkAnswer(summarize(r, nf), k); err == nil {
			t.Errorf("%s: corrupted answer passed the check", name)
		}
	}
}

func TestScoreCountsEveryFailure(t *testing.T) {
	pool, keys := testKey([]int{0, 1, -1})
	start := time.Now()
	at := func(d time.Duration) time.Time { return start.Add(d) }
	s := &sender{pool: pool}
	decodeBatch := func(resps ...*analysis.DiagnoseResponse) []served {
		body, _ := json.Marshal(analysis.BatchResponse{Responses: resps, Errors: make([]string, len(resps))})
		out, err := s.decode(&request{path: "/v1/diagnose-batch", idx: []int{1, 0}}, body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	good := func(i int) served { return summarize(answerFor(pool, keys, i), pool[i].layout.NumFeatures()) }
	wrong := answerFor(pool, keys, 1)
	wrong.Causes[0].Feature = 5
	reads := []outcome{
		// A correct single answer, in time.
		{req: &request{idx: []int{0}}, sent: at(0), done: at(2 * time.Millisecond), answers: []served{good(0)}},
		// A correct batch whose samples came back in request order.
		{req: &request{idx: []int{1, 0}}, sent: at(0), done: at(4 * time.Millisecond),
			answers: decodeBatch(answerFor(pool, keys, 1), answerFor(pool, keys, 0))},
		// The same batch merged out of order: both samples are wrong.
		{req: &request{idx: []int{1, 0}}, sent: at(0), done: at(4 * time.Millisecond),
			answers: decodeBatch(answerFor(pool, keys, 0), answerFor(pool, keys, 1))},
		// A corrupted answer.
		{req: &request{idx: []int{1}}, sent: at(0), done: at(3 * time.Millisecond),
			answers: []served{summarize(wrong, pool[1].layout.NumFeatures())}},
		// A transport failure.
		{req: &request{idx: []int{2}}, sent: at(0), done: at(time.Millisecond), err: http.ErrHandlerTimeout},
		// A correct answer that missed the latency limit.
		{req: &request{idx: []int{2}}, sent: at(0), done: at(60 * time.Millisecond), answers: []served{good(2)}},
	}
	writes := []outcome{{req: &request{idx: []int{0}}, sent: at(0), done: at(time.Millisecond), err: http.ErrAbortHandler}}
	res := &result{EndToEnd: map[string]float64{}, Details: map[string]float64{}}
	b := &bench{cfg: benchConfig{seconds: 1}, p: workloadParams{SLOms: 50}, pool: pool, key: keys, res: res}
	b.score(reads, writes, start)

	if res.Attempted != 7 || res.Failed != 4 {
		t.Errorf("attempted/failed = %d/%d, want 7/4", res.Attempted, res.Failed)
	}
	if got := res.Details["read_samples"]; got != 8 {
		t.Errorf("read samples = %v, want 8", got)
	}
	// Labelled samples (cause ≥ 0): 1+2+2+1 = 6; hits: the first single,
	// both samples of the ordered batch.
	if got, want := res.EndToEnd["recall_at_1"], 3.0/6; got != want {
		t.Errorf("recall = %v, want %v", got, want)
	}
	if got, want := res.EndToEnd["slo_attainment"], 2.0/6; got != want {
		t.Errorf("slo attainment = %v, want %v", got, want)
	}
	if got, want := res.EndToEnd["success_rate"], 3.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("success rate = %v, want %v", got, want)
	}
	// Correct samples: 1 + 2 + 1 over the 60 ms the reads took.
	if got, want := res.EndToEnd["samples_per_s"], 4/0.060; math.Abs(got-want) > 1e-9 {
		t.Errorf("samples/s = %v, want %v", got, want)
	}
	if len(res.Problems) == 0 {
		t.Error("failed requests raised no problem")
	}
}

func TestGrowth(t *testing.T) {
	if g := growth([]float64{0, 1, 0, 5, 5, 6, 20, 21, 22}); g != 21-1.0/3 {
		t.Errorf("growth = %v", g)
	}
	if g := growth([]float64{3, 3}); g != 0 {
		t.Errorf("short series growth = %v", g)
	}
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the report %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, report %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// smoke runs one short workload against a tiny model.
func smoke(t *testing.T, name string, seconds float64, trace bool, wrap func(int, http.Handler) http.Handler) *result {
	t.Helper()
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	res, err := runBench(benchConfig{root: "..", workload: workloads[name], seed: 3, seconds: seconds, trace: trace,
		size: tinySize, trainInProcess: true, wrapReplica: wrap})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeWorkloads(t *testing.T) {
	for _, c := range []struct {
		name    string
		seconds float64
		trace   bool
	}{{"online", 1, false}, {"bulk", 1, false}, {"learn", 2, false}, {"online", 1, true}, {"learn", 2, true}} {
		res := smoke(t, c.name, c.seconds, c.trace, nil)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d problems=%v errors=%v",
				c.name, c.trace, res.Correct, res.Attempted, res.Failed, res.Problems, res.Errors)
		}
		defs, values := endToEnd, res.EndToEnd
		if c.trace {
			defs, values = perLayer, res.PerLayer
		}
		for _, m := range defs {
			if _, ok := values[m.name]; !ok {
				t.Errorf("%s trace=%t: metric %s missing", c.name, c.trace, m.name)
			}
		}
		if c.trace {
			spans, err := os.ReadFile(filepath.Join("..", ".bench_build", "results", c.name+"-seed3-spans.jsonl"))
			if err != nil || !bytes.Contains(spans, []byte(`"kind":"attempt"`)) {
				t.Errorf("%s: spans not written out: %v", c.name, err)
			}
		}
		if res.Details["reference_recall_at_1"] != res.EndToEnd["recall_at_1"] {
			t.Errorf("%s: recall %v differs from the reference %v", c.name, res.EndToEnd["recall_at_1"], res.Details["reference_recall_at_1"])
		}
	}
}

// TestCorruptedAnswerIsCounted proves end to end that a replica returning
// a wrong cause turns into failed requests and an incorrect run.
func TestCorruptedAnswerIsCounted(t *testing.T) {
	var corrupted atomic.Int64
	wrap := func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var resp analysis.DiagnoseResponse
			if r.URL.Path != "/v1/diagnose" || rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
			resp.Causes[0].Feature = resp.Causes[1].Feature
			corrupted.Add(1)
			var body bytes.Buffer
			json.NewEncoder(&body).Encode(&resp)
			w.Header().Set("Content-Type", "application/json")
			w.Write(body.Bytes())
		})
	}
	res := smoke(t, "online", 1, false, wrap)
	if corrupted.Load() == 0 {
		t.Fatal("no request reached the corrupting replica")
	}
	if res.Correct || res.Failed == 0 || res.EndToEnd["success_rate"] >= 1 {
		t.Errorf("corruption not counted: correct=%t failed=%d success=%v", res.Correct, res.Failed, res.EndToEnd["success_rate"])
	}
	if len(res.Errors) == 0 || !strings.Contains(strings.Join(res.Errors, " "), "cause") {
		t.Errorf("errors do not name the bad cause: %v", res.Errors)
	}
}
