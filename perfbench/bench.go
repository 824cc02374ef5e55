package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/leakcheck"
)

// workloadParams are a workload's fixed settings; every result records
// them.
type workloadParams struct {
	Name string `json:"name"`
	// Rate is the open-loop diagnose rate; 0 runs a closed loop.
	Rate  float64 `json:"rate_per_s,omitempty"`
	Conns int     `json:"client_conns"`
	Batch int     `json:"samples_per_request"`
	// SLOms is the latency limit one read must meet.
	SLOms float64 `json:"slo_ms"`
	// Learn: labelled feedback posts beside the reads, and adaptCycles
	// adaptations back to back once AdaptAfter feedback samples have been
	// acknowledged.
	WriteRate    float64   `json:"write_rate_per_s,omitempty"`
	WriteSamples int       `json:"write_samples,omitempty"`
	AdaptAfter   int       `json:"adapt_after_samples,omitempty"`
	Seconds      float64   `json:"seconds"`
	Model        modelSize `json:"model"`
}

var workloads = map[string]workloadParams{
	// One diagnose per request at a fixed arrival rate: engine batches hold
	// about one request, so the B=1 forward plus input gradient dominates.
	"online": {Name: "online", Rate: 150, Conns: 2, Batch: 1, SLOms: 50},
	// 64-sample batches back to back: router scatter-gather, engine
	// coalescing and the fused batch pass dominate.
	"bulk": {Name: "bulk", Conns: 1, Batch: 64, SLOms: 250},
	// Reads beside labelled feedback writes and retrain-specialize-
	// promote cycles: the training path and durable journal appends.
	"learn": {Name: "learn", Rate: 50, Conns: 1, Batch: 1, SLOms: 50, WriteRate: 20, WriteSamples: 16, AdaptAfter: 320},
}

const (
	bootVersion = "boot"
	// adaptEpochs is the fixed warm-start retrain budget of an adaptation.
	adaptEpochs = 2
	// setupBoots is how many times a run assembles the fleet; setup_s is
	// the median.
	setupBoots = 5
	// adaptCycles is how many adaptations learn runs back to back: a fixed
	// amount of training work per window, so faster training leaves the
	// reads less time under contention.
	adaptCycles = 3
	// lagBoundMs and backlogBound are the validity guards: a run whose
	// generator sent late, or whose queues grew across the window, did not
	// offer the load it claims. The generator shares the process, so a
	// process-wide stall (a stop-the-world GC pause) delays its sends as it
	// would delay a remote client's requests; such lag is counted in the
	// latency, which is timed from the due time. Only lag beyond the
	// single-request latency limit marks the run invalid.
	lagBoundMs   = 50
	backlogBound = 16
	// bulkBatches is how many distinct 64-sample batches bulk cycles over.
	bulkBatches = 64
	// warmRequests are sent before the window to open connections and
	// settle the engines and the router's hedging histogram.
	warmRequests = 40
)

// benchConfig is one invocation.
type benchConfig struct {
	root     string // repository root; all state lives under root/.bench_build
	workload workloadParams
	seed     int64
	seconds  float64
	trace    bool
	size     modelSize
	// trainInProcess trains a missing fixture in this process instead of a
	// child process (self-tests).
	trainInProcess bool
	wrapReplica    func(int, http.Handler) http.Handler
}

// result is everything one run measured.
type result struct {
	Env       envStamp           `json:"env"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"first_errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Details holds sample counts, the in-process reference recall, the
	// validity guards' readings and the learn-only figures.
	Details map[string]float64 `json:"details"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// bench is one run's state.
type bench struct {
	cfg    benchConfig
	p      workloadParams
	work   string
	d      *workloadData
	pool   []poolReq
	key    *answerKey
	boot   *core.Bundle // a private copy of the served bundle
	reads  []*request
	dues   []time.Duration // nil: closed loop
	writes []*request
	rec    *recorder
	res    *result
}

func runBench(cfg benchConfig) (*result, error) {
	b := &bench{cfg: cfg, p: cfg.workload, work: filepath.Join(cfg.root, ".bench_build")}
	b.p.Seconds = cfg.seconds
	b.p.Model = cfg.size
	digest, err := sourceDigest(cfg.root)
	if err != nil {
		return nil, fmt.Errorf("hash sources: %w", err)
	}
	b.res = &result{
		Env:      stampEnv(cfg.root, b.p, cfg.seed, cfg.trace, digest),
		EndToEnd: map[string]float64{},
		Details:  map[string]float64{},
	}
	if cfg.trace {
		b.res.PerLayer = map[string]float64{}
		b.rec = newRecorder()
	}
	fixture := fixturePath(b.work, digest, cfg.size)
	if err := ensureFixture(fixture, cfg); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	if err := b.prepare(fixture); err != nil {
		return nil, err
	}
	stateDir, err := os.MkdirTemp(b.work, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)

	// Everything started from here on must be gone after teardown.
	leakBase := leakcheck.IgnoreCurrent()
	fdBase := leakcheck.CountFDs()

	var f *fleet
	var setups []float64
	for i := 0; i < setupBoots; i++ {
		o := fleetOpts{bundlePath: fixture, rec: b.rec, wrapReplica: cfg.wrapReplica}
		if b.p.WriteRate > 0 {
			o.stateDir = filepath.Join(stateDir, strconv.Itoa(i))
		}
		fl, took, err := bootFleet(o)
		if err != nil {
			return nil, fmt.Errorf("boot fleet: %w", err)
		}
		setups = append(setups, took.Seconds())
		if i == setupBoots-1 {
			f = fl
		} else if err := fl.close(); err != nil {
			return nil, fmt.Errorf("tear down fleet: %w", err)
		}
	}
	b.res.EndToEnd["setup_s"] = median(setups)

	rs := &sender{client: newClient(b.p.Conns), url: f.url, pool: b.pool, rec: b.rec}
	var ws *sender
	if b.p.WriteRate > 0 {
		ws = &sender{client: newClient(1), url: f.replicas[0].url, pool: b.pool, rec: b.rec}
	}
	runErr := b.drive(f, rs, ws)
	if err := f.close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("tear down fleet: %w", err)
	}
	rs.client.CloseIdleConnections()
	if ws != nil {
		ws.client.CloseIdleConnections()
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := leakcheck.Find(leakBase); err != nil {
		b.res.problem("goroutines outlived teardown: %v", err)
	}
	if fd := settledFDs(fdBase); fd != fdBase {
		b.res.problem("file descriptors after teardown: %d, before the run: %d", fd, fdBase)
	}
	b.res.Correct = len(b.res.Problems) == 0
	return b.res, nil
}

// prepare generates the seed's inputs and loads the reference bundle.
func (b *bench) prepare(fixture string) error {
	b.d = genData(b.cfg.seed)
	var err error
	if b.pool, err = buildPool(b.d, b.cfg.seed); err != nil {
		return err
	}
	if b.boot, err = loadBundle(fixture); err != nil {
		return err
	}
	b.key = newAnswerKey(b.pool)
	b.key.add(bootVersion, b.boot)

	rng := rand.New(rand.NewSource(b.cfg.seed + 4))
	if b.p.Batch > 1 {
		b.reads, err = batchRequests(rng, b.pool, bulkBatches, b.p.Batch)
		if err != nil {
			return err
		}
	} else {
		singles := singleRequests(b.pool)
		b.dues = poissonDues(rng, int(b.p.Rate*b.cfg.seconds+0.5), b.window())
		b.reads = make([]*request, len(b.dues))
		for i := range b.reads {
			b.reads[i] = singles[rng.Intn(len(singles))]
		}
	}
	if b.p.WriteRate > 0 {
		b.writes, err = feedbackRequests(b.d, int(b.p.WriteRate*b.cfg.seconds+0.5), b.p.WriteSamples)
	}
	return err
}

func (b *bench) window() time.Duration { return time.Duration(b.cfg.seconds * float64(time.Second)) }

// settledFDs polls the descriptor count for up to a second until it is
// back at want, returning the last count.
func settledFDs(want int) int {
	fd := leakcheck.CountFDs()
	for deadline := time.Now().Add(time.Second); fd != want && time.Now().Before(deadline); fd = leakcheck.CountFDs() {
		time.Sleep(10 * time.Millisecond)
	}
	return fd
}

// ensureFixture trains the bundle unless a run of the same code already
// did. Training is one-off set-up: a child process does it, so neither its
// time nor its memory lands in this run's figures.
func ensureFixture(path string, cfg benchConfig) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if cfg.trainInProcess {
		return buildFixture(path, cfg.size)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--build-fixture", path)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// feedbackRequests builds n feedback posts of size labelled samples each,
// cycling over the samples the fixture was not trained on.
func feedbackRequests(d *workloadData, n, size int) ([]*request, error) {
	fb := d.feedback.Samples
	if len(fb) == 0 {
		return nil, errors.New("no feedback samples")
	}
	reqs := make([]*request, n)
	next := 0
	for i := range reqs {
		r := &request{path: "/v1/continual/samples", idx: make([]int, size)}
		var body analysis.FeedbackRequest
		for j := range r.idx {
			r.idx[j] = next % len(fb)
			body.Samples = append(body.Samples, feedbackSample(&fb[r.idx[j]], d.full))
			next++
		}
		var err error
		if r.body, err = json.Marshal(&body); err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// adapt exports replica 0's sample store, warm-starts a retrain of the
// active general model for adaptEpochs, specializes it for the bundle's
// services and promotes the result on every replica as version.
func (b *bench) adapt(f *fleet, version string) (*core.Bundle, error) {
	n0 := f.replicas[0]
	base, _, err := n0.engine.Registry().ActiveBundle()
	if err != nil {
		return nil, err
	}
	train, _ := n0.store.Export(b.d.full, 0, b.cfg.seed)
	r, err := base.General.Retrain(train, core.RetrainOptions{Epochs: adaptEpochs, Patience: adaptEpochs + 1, Seed: b.cfg.seed})
	if err != nil {
		return nil, err
	}
	next := core.NewBundle(r.Model)
	for _, svc := range specializedServices(base) {
		if train.FilterService(svc).Len() == 0 {
			return nil, fmt.Errorf("no exported samples for service %d", svc)
		}
		next.Specialized[svc] = r.Model.Specialize(train, svc).Model
	}
	return next, f.promote(version, next)
}

// adaptLoop runs adaptCycles adaptations back to back once AdaptAfter
// feedback samples have been acknowledged, and returns each cycle's
// duration.
func (b *bench) adaptLoop(f *fleet, start time.Time, acked *atomic.Int64) ([]float64, error) {
	for acked.Load() < int64(b.p.AdaptAfter) {
		if time.Since(start) > b.window() {
			return nil, fmt.Errorf("adaptation never started: %d of %d feedback samples acknowledged", acked.Load(), b.p.AdaptAfter)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var took []float64
	for k := 1; k <= adaptCycles; k++ {
		version := fmt.Sprintf("adapt-%d", k)
		t := time.Now()
		next, err := b.adapt(f, version)
		if err != nil {
			return took, fmt.Errorf("adaptation %d: %w", k, err)
		}
		took = append(took, time.Since(t).Seconds())
		b.key.add(version, next)
	}
	return took, nil
}

// drive runs the warm-up and the measured window on a booted fleet, then
// checks every answer and fills in the metrics.
func (b *bench) drive(f *fleet, rs, ws *sender) error {
	warm := warmRequests
	if b.p.Batch > 1 {
		warm = 3
	}
	for i := 0; i < warm; i++ {
		if o := rs.send(b.reads[i%len(b.reads)], time.Time{}); o.err != nil {
			return fmt.Errorf("warm-up request: %w", o.err)
		}
	}
	if b.rec != nil {
		b.rec.reset()
	}
	runtime.GC()

	before := readWindowProbe()
	shedBefore := f.shed()
	stealBefore, cpuBefore := hostCPU()
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	var readLoop, writeLoop *openLoop
	var readOuts []outcome
	if b.dues != nil {
		readLoop = newOpenLoop(rs, b.p.Conns, b.reads, b.dues)
		wg.Add(1)
		go func() {
			defer wg.Done()
			readLoop.run(start)
		}()
	} else {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start))
			readOuts = closedLoop(rs, b.reads, start.Add(b.window()))
		}()
	}
	var adaptTook []float64
	var adaptErr error
	if ws != nil {
		var acked atomic.Int64
		writeLoop = newOpenLoop(ws, 1, b.writes, evenDues(len(b.writes), b.p.WriteRate))
		writeLoop.after = func(o outcome) {
			if o.err == nil {
				acked.Add(int64(len(o.req.idx)))
			}
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			writeLoop.run(start)
		}()
		go func() {
			defer wg.Done()
			adaptTook, adaptErr = b.adaptLoop(f, start, &acked)
		}()
	}
	var backlog []float64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				n := f.queueDepth()
				for _, l := range []*openLoop{readLoop, writeLoop} {
					if l != nil {
						n += l.backlog()
					}
				}
				backlog = append(backlog, float64(n))
			}
		}
	}()
	wg.Wait()
	close(stop)
	sampler.Wait()
	// Read before the answer key is computed: the key's in-process
	// diagnoses are the benchmark's work, not the fleet's.
	b.res.EndToEnd["peak_rss_mb"] = peakRSSMB()
	after := readWindowProbe()
	shed := f.shed() - shedBefore
	if steal, cpu := hostCPU(); cpu > cpuBefore {
		b.res.Details["host_steal_share"] = (steal - stealBefore) / (cpu - cpuBefore)
	}
	if adaptErr != nil {
		return adaptErr
	}

	var writeOuts []outcome
	var lags []float64
	if readLoop != nil {
		readOuts = readLoop.outs
		lags = append(lags, readLoop.lags...)
	}
	if writeLoop != nil {
		writeOuts = writeLoop.outs
		lags = append(lags, writeLoop.lags...)
		b.res.Details["adapt_s"] = median(adaptTook)
	}

	res := b.res
	b.score(readOuts, writeOuts, start)
	res.Details["loadgen.lag_p99_ms"] = percentile(lags, 0.99)
	res.Details["backlog_growth"] = growth(backlog)
	res.Details["serving.shed"] = float64(shed)
	if lag := res.Details["loadgen.lag_p99_ms"]; lag > lagBoundMs {
		res.problem("invalid run: generator lag p99 %.2f ms exceeds %d ms", lag, lagBoundMs)
	}
	if g := res.Details["backlog_growth"]; g > backlogBound {
		res.problem("invalid run: queued requests grew by %.1f across the window (bound %d)", g, backlogBound)
	}
	if b.rec == nil {
		return nil
	}

	out := res.PerLayer
	spans := b.rec.snapshot()
	if err := writeSpans(filepath.Join(b.work, "results", fmt.Sprintf("%s-seed%d-spans.jsonl", b.p.Name, b.cfg.seed)), spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	out["loadgen.lag_p99_ms"] = res.Details["loadgen.lag_p99_ms"]
	out["cluster.self_p50_ms"] = median(selfTimesMs(spans, kindRouter, anySpan))
	out["cluster.scatter_self_ms"] = median(selfTimesMs(spans, kindRouter, batchSpan))
	if routed := len(durationsMs(spans, kindRouter, anySpan)); routed > 0 {
		out["cluster.attempts_per_req"] = float64(len(durationsMs(spans, kindAttempt, anySpan))) / float64(routed)
	}
	handler := durationsMs(spans, kindHandler, anySpan)
	out["analysis.handler_p50_ms"] = percentile(handler, 0.5)
	out["analysis.handler_p99_ms"] = percentile(handler, 0.99)
	out["serving.shed"] = float64(shed)
	out["trace.req_p50_ms"] = res.EndToEnd["req_p50_ms"]
	out["trace.req_p99_ms"] = res.Details["req_p99_ms"]
	out["learn.adapt_s"] = res.Details["adapt_s"]
	out["learn.ingest_p99_ms"] = res.Details["ingest_p99_ms"]
	windowLayers(before, after, out)
	sample := b.reads[:min(len(b.reads), 200)]
	if b.p.Batch > 1 {
		sample = b.reads[:min(len(b.reads), 3)]
	}
	return b.directLayers(context.Background(), f, sample, out)
}

// growth is how much the mean of the last third of samples exceeds the
// mean of the first third.
func growth(xs []float64) float64 {
	n := len(xs) / 3
	if n == 0 {
		return 0
	}
	return mean(xs[len(xs)-n:]) - mean(xs[:n])
}

// score checks every outcome and computes the end-to-end metrics.
func (b *bench) score(reads, writes []outcome, start time.Time) {
	res := b.res
	fail := func(err error) {
		res.Failed++
		if len(res.Errors) < 5 {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	var lat []float64
	var sloMet, samples, okSamples, labelled, hits, refHits int
	var last time.Time
	for i := range reads {
		o := &reads[i]
		res.Attempted++
		samples += len(o.req.idx)
		oks, err := b.key.check(o)
		if err != nil {
			fail(err)
		} else {
			okSamples += len(o.req.idx)
		}
		l := ms(o.latency())
		lat = append(lat, l)
		if err == nil && l <= b.p.SLOms {
			sloMet++
		}
		if o.done.After(last) {
			last = o.done
		}
		for j, idx := range o.req.idx {
			cause := b.pool[idx].cause
			if cause < 0 {
				continue
			}
			labelled++
			version := bootVersion
			if oks != nil {
				version = o.answers[j].version
				if oks[j] && o.answers[j].causes[0].Feature == cause {
					hits++
				}
			}
			if e, ok := b.key.entry(version, idx); ok && e.top[0] == cause {
				refHits++
			}
		}
	}
	var ingest []float64
	for i := range writes {
		o := &writes[i]
		res.Attempted++
		if o.err != nil {
			fail(fmt.Errorf("feedback post: %w", o.err))
		}
		ingest = append(ingest, ms(o.latency()))
	}

	e := res.EndToEnd
	e["req_p50_ms"] = percentile(lat, 0.5)
	if el := last.Sub(start).Seconds(); el > 0 {
		e["samples_per_s"] = float64(okSamples) / el
	}
	if len(reads) > 0 {
		e["slo_attainment"] = float64(sloMet) / float64(len(reads))
	}
	if res.Attempted > 0 {
		e["success_rate"] = 1 - float64(res.Failed)/float64(res.Attempted)
	}
	if labelled > 0 {
		e["recall_at_1"] = float64(hits) / float64(labelled)
		res.Details["reference_recall_at_1"] = float64(refHits) / float64(labelled)
	}
	res.Details["req_p99_ms"] = percentile(lat, 0.99)
	res.Details["read_requests"] = float64(len(reads))
	res.Details["read_samples"] = float64(samples)
	res.Details["labelled_samples"] = float64(labelled)
	if len(writes) > 0 {
		res.Details["feedback_posts"] = float64(len(writes))
		res.Details["ingest_p99_ms"] = percentile(ingest, 0.99)
	}
	if res.Failed > 0 {
		res.problem("%d of %d requests failed", res.Failed, res.Attempted)
	}
	if hits != refHits {
		res.problem("served recall@1 %d/%d differs from the in-process reference %d/%d", hits, labelled, refHits, labelled)
	}
}
