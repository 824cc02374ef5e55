package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/obs"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
)

// windowProbe holds counters read at the start of the load window, so the
// per-layer figures cover the window alone.
type windowProbe struct {
	tel telemetry.Export
	rt  []metrics.Sample
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readWindowProbe() windowProbe {
	p := windowProbe{tel: telemetry.Default().Export(), rt: make([]metrics.Sample, len(runtimeMetricNames))}
	for i, n := range runtimeMetricNames {
		p.rt[i].Name = n
	}
	metrics.Read(p.rt)
	return p
}

// histDelta returns the named program histogram's observations between
// two exports.
func histDelta(before, after *telemetry.Export, name string) (telemetry.HistogramPoint, bool) {
	cur, ok := after.Histogram(name)
	if !ok {
		return telemetry.HistogramPoint{}, false
	}
	prev, _ := before.Histogram(name)
	return obs.SubtractHistogram(cur, prev)
}

func histMean(h telemetry.HistogramPoint) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum / float64(h.Count())
}

// windowLayers reads the program's own histograms and the Go runtime's
// metrics over the window.
func windowLayers(before, after windowProbe, out map[string]float64) {
	bs, _ := histDelta(&before.tel, &after.tel, "serving.batch.size")
	out["serving.batch_size_mean"] = histMean(bs)
	bw, _ := histDelta(&before.tel, &after.tel, "serving.batch.wait_ms")
	out["serving.batch_wait_p50_ms"] = bw.Quantile(0.5)
	for _, st := range []string{"normalize", "forward_gradient", "weighting", "ensemble"} {
		h, _ := histDelta(&before.tel, &after.tel, "core.diagnose.stage."+st+"_ms")
		out["core.stage."+st+"_us"] = histMean(h) * 1e3
	}

	// The GC's share of the CPU time the process used (idle excluded).
	delta := func(i int) float64 { return after.rt[i].Value.Float64() - before.rt[i].Value.Float64() }
	if busy := delta(1) - delta(2); busy > 0 {
		out["gc.cpu_fraction"] = delta(0) / busy
	}
	out["gc.pause_p99_us"] = pauseQuantile(before.rt[3].Value.Float64Histogram(), after.rt[3].Value.Float64Histogram(), 0.99) * 1e6
}

// pauseQuantile is the q-quantile of the pauses recorded between two
// reads of a runtime histogram, at the upper edge of its bucket.
func pauseQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total-1)) + 1
	var seen uint64
	for i, c := range delta {
		if seen += c; seen >= rank {
			return after.Buckets[i+1]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// timeEach runs fn n times and returns each call's wall time.
func timeEach(n int, fn func(i int)) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t := time.Now()
		fn(i)
		out[i] = time.Since(t)
	}
	return out
}

func p50us(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

// directLayers times isolated calls into each module's public functions
// with the workload's own inputs (sample is a slice of its requests), on
// the fleet after the window, when it is idle.
func (b *bench) directLayers(ctx context.Context, f *fleet, sample []*request, out map[string]float64) error {
	const calls = 200
	boot, d, pool, seed := b.boot, b.d, b.pool, b.cfg.seed
	n := min(calls, len(pool))
	m := boot.General

	// serving: one request at a time through an engine's admission path.
	e := f.replicas[len(f.replicas)-1].engine
	var submitErr error
	out["serving.submit_p50_ms"] = p50us(timeEach(n, func(i int) {
		p := &pool[i]
		if _, err := e.Submit(ctx, &serving.Request{ServiceID: p.req.ServiceID, Layout: p.layout, Features: p.req.Features}); err != nil {
			submitErr = err
		}
	})) / 1e3
	if submitErr != nil {
		return fmt.Errorf("serving submit: %w", submitErr)
	}
	var promoteErr error
	out["serving.promote_s"] = p50us(timeEach(3, func(i int) {
		v := fmt.Sprintf("layer-promote-%d", i)
		if err := e.Registry().Add(v, boot); err != nil {
			promoteErr = err
		} else if err := e.Registry().Promote(v); err != nil {
			promoteErr = err
		}
	})) / 1e6
	if promoteErr != nil {
		return fmt.Errorf("serving promote: %w", promoteErr)
	}

	// core: the single-sample pipeline, its allocations, the fused batch.
	out["core.diagnose_p50_us"] = p50us(timeEach(n, func(i int) {
		m.Diagnose(pool[i].req.Features, pool[i].layout)
	}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		m.Diagnose(pool[i%len(pool)].req.Features, pool[i%len(pool)].layout)
	}
	runtime.ReadMemStats(&after)
	out["core.alloc_bytes_per_diagnose"] = float64(after.TotalAlloc-before.TotalAlloc) / 50
	out["core.allocs_per_diagnose"] = float64(after.Mallocs-before.Mallocs) / 50

	var full [][]float64
	for i := range pool {
		if pool[i].layout.NumLandmarks() == d.full.NumLandmarks() && len(full) < 64 {
			full = append(full, pool[i].req.Features)
		}
	}
	sess := m.NewSession()
	out["core.batch64_us_per_sample"] = p50us(timeEach(5, func(int) { sess.DiagnoseBatch(full, d.full) })) / float64(len(full))

	// nn: the forward pass alone against forward plus input gradient.
	normed := make([][]float64, len(full))
	for i, x := range full {
		normed[i] = m.Norm.Apply(x, d.full)
	}
	out["nn.forward_us"] = p50us(timeEach(n, func(i int) {
		x := normed[i%len(normed)]
		m.Net.Forward(mat.FromSlice(1, len(x), append([]float64(nil), x...)))
	}))
	out["nn.input_gradient_us"] = p50us(timeEach(n, func(i int) { m.Net.InputGradient(normed[i%len(normed)], -1) }))

	// forest: auxiliary scores on full-layout features.
	scores := make([]float64, m.Aux.Causes())
	out["forest.scores_us"] = p50us(timeEach(n, func(i int) { m.Aux.ScoresInto(full[i%len(full)], scores) }))

	// analysis: the replica's JSON codec on this workload's request and
	// the reply it gets.
	codec, err := codecTimes(sample, pool, b.key)
	if err != nil {
		return err
	}
	out["analysis.codec_us"] = p50us(codec)

	// continual: journal-backed ingest and export, then the retrain and
	// specialization an adaptation runs.
	dir, err := os.MkdirTemp(b.work, "layer-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := continual.OpenStore(continual.StoreConfig{Dir: dir, Seed: seed, Fsync: storeFsync})
	if err != nil {
		return err
	}
	defer store.Close()
	fb := d.feedback.Samples
	var ingestErr error
	out["continual.store_ingest_us"] = p50us(timeEach(n, func(i int) {
		if err := store.Ingest(feedbackSample(&fb[i%len(fb)], d.full)); err != nil {
			ingestErr = err
		}
	}))
	if ingestErr != nil {
		return fmt.Errorf("continual ingest: %w", ingestErr)
	}
	out["continual.export_ms"] = p50us(timeEach(3, func(int) { store.Export(d.full, 0, seed) })) / 1e3

	train := &dataset.Dataset{Layout: d.full, Samples: fb}
	var epochs []float64
	last := time.Now()
	t := time.Now()
	_, err = m.Retrain(train, core.RetrainOptions{Epochs: adaptEpochs, Patience: adaptEpochs + 1, Seed: seed,
		OnEpoch: func(int, *nn.History) bool {
			epochs = append(epochs, time.Since(last).Seconds())
			last = time.Now()
			return true
		}})
	if err != nil {
		return fmt.Errorf("core retrain: %w", err)
	}
	out["core.retrain_s"] = time.Since(t).Seconds()
	out["nn.train_epoch_s"] = median(epochs)
	svc := specializedServices(boot)[0]
	if train.FilterService(svc).Len() == 0 {
		return errors.New("no feedback samples for the specialized service")
	}
	t = time.Now()
	m.Specialize(train, svc)
	out["core.specialize_s"] = time.Since(t).Seconds()
	return nil
}

// codecTimes times decoding each sample request body and encoding the
// reply the key holds for it, as the replica handler does.
func codecTimes(sample []*request, pool []poolReq, key *answerKey) ([]time.Duration, error) {
	resps := make([][]*analysis.DiagnoseResponse, len(sample))
	for i, r := range sample {
		for _, j := range r.idx {
			k, _ := key.entry(bootVersion, j)
			resps[i] = append(resps[i], keyResponse(&pool[j], k))
		}
	}
	var err error
	times := timeEach(len(sample), func(i int) {
		r := sample[i]
		var e error
		if len(r.idx) == 1 {
			var req analysis.DiagnoseRequest
			if e = json.Unmarshal(r.body, &req); e == nil {
				_, e = json.Marshal(resps[i][0])
			}
		} else {
			var req analysis.BatchRequest
			if e = json.Unmarshal(r.body, &req); e == nil {
				_, e = json.Marshal(&analysis.BatchResponse{Responses: resps[i], Errors: make([]string, len(r.idx))})
			}
		}
		if e != nil {
			err = e
		}
	})
	return times, err
}

// keyResponse is the reply a replica sends for p when it answers as k.
func keyResponse(p *poolReq, k *keyEntry) *analysis.DiagnoseResponse {
	resp := &analysis.DiagnoseResponse{Family: k.family, Coarse: k.diag.Coarse, UnknownWeight: k.diag.UnknownWeight,
		ModelService: k.service, ModelVersion: bootVersion}
	for _, c := range k.top {
		resp.Causes = append(resp.Causes, analysis.Cause{Feature: c, Name: p.layout.FeatureName(c),
			Family: p.layout.FamilyOf(c).String(), Score: k.diag.Final[c]})
	}
	return resp
}
