package serving

import (
	"context"
	"math"
	"time"

	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
)

// Shadow tee: when a candidate version is installed in the registry
// (Registry.InstallShadow) and a tee fraction is set, a sampled share of
// already-answered requests is replayed through the candidate on a
// dedicated executor goroutine. The tee runs strictly after the real
// response has been settled — the serving path only pays one atomic load
// and, for sampled groups, a non-blocking channel send — so a slow or
// broken candidate can never add client latency. A full tee queue drops
// the sample (counted), it never backpressures.

// ShadowObservation is one request's incumbent-vs-candidate comparison,
// delivered to the observer installed with SetShadowObserver.
type ShadowObservation struct {
	// ServiceID is the request's service.
	ServiceID int
	// IncumbentVersion / ShadowVersion name the two models compared.
	IncumbentVersion string
	ShadowVersion    string
	// Incumbent and Shadow are the two coarse distributions.
	Incumbent []float64
	Shadow    []float64
	// Agree reports whether both models picked the same coarse class.
	Agree bool
	// IncumbentLatency and ShadowLatency are per-sample shares of the
	// fused pass each model ran the sample in (batch time / batch size) —
	// the quantity the promotion gate's latency criterion compares.
	IncumbentLatency time.Duration
	ShadowLatency    time.Duration
}

// shadowJob replays one served group through the candidate.
type shadowJob struct {
	snap       *snapshot // candidate snapshot pinned at tee time
	incVersion string
	layout     probe.Layout
	services   []int
	features   [][]float64
	incCoarse  [][]float64
	incPerItem time.Duration
}

// SetShadowTee sets the fraction of served requests teed through the
// shadow candidate (0 disables, 1 tees everything). Safe under live
// traffic.
func (e *Engine) SetShadowTee(fraction float64) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	e.teeFracBits.Store(math.Float64bits(fraction))
}

// ShadowTee returns the current tee fraction.
func (e *Engine) ShadowTee() float64 {
	return math.Float64frombits(e.teeFracBits.Load())
}

// SetShadowObserver installs the callback receiving one ShadowObservation
// per teed request. The callback runs on the shadow executor goroutine —
// keep it cheap or hand off.
func (e *Engine) SetShadowObserver(fn func(ShadowObservation)) {
	if fn == nil {
		e.observer.Store((*func(ShadowObservation))(nil))
		return
	}
	e.observer.Store(&fn)
}

// maybeTee samples a served group into the shadow queue. Called by
// serveGroup after every member's outcome has been delivered.
func (e *Engine) maybeTee(svcs []int, layout probe.Layout, features [][]float64, incCoarse [][]float64, incVersion string, incDur time.Duration) {
	frac := e.ShadowTee()
	if frac <= 0 {
		return
	}
	snap := e.reg.shadow()
	if snap == nil {
		return
	}
	n := int64(len(features))
	seen := e.teeSeen.Add(n)
	// Threshold sampling at group granularity: tee while the running
	// teed/seen ratio is below the target fraction. Deterministic, cheap,
	// and converges to the fraction without per-item RNG.
	if float64(e.teeSent.Load()+n)/float64(seen) > frac && frac < 1 {
		return
	}
	job := &shadowJob{
		snap:       snap,
		incVersion: incVersion,
		layout:     layout,
		services:   svcs,
		features:   features,
		incCoarse:  incCoarse,
		incPerItem: incDur / time.Duration(len(features)),
	}
	select {
	case e.shadowCh <- job:
		e.teeSent.Add(n)
		e.shadowTeed.Add(n)
		mShadowTeed.Add(n)
	default:
		e.shadowDropped.Add(n)
		mShadowDropped.Add(n)
	}
}

// shadowWorker drains the tee queue: each job is replayed through the
// candidate's models as fused per-model passes, and the observer receives
// one observation per sample.
func (e *Engine) shadowWorker() {
	defer e.shadowWG.Done()
	for job := range e.shadowCh {
		e.runShadowJob(job)
	}
}

func (e *Engine) runShadowJob(job *shadowJob) {
	defer func() {
		if rec := recover(); rec != nil {
			// A broken candidate must not kill the executor — the gate
			// will see zero observations and refuse to promote.
			mShadowPanics.Inc()
		}
	}()
	obs := e.observerFn()

	// Group members by the candidate model their service maps to (the
	// candidate may specialize services the incumbent served generally).
	done := make([]bool, len(job.features))
	for i := range job.features {
		if done[i] {
			continue
		}
		m, _ := job.snap.modelFor(job.services[i])
		idx := []int{i}
		feats := [][]float64{job.features[i]}
		for j := i + 1; j < len(job.features); j++ {
			if done[j] {
				continue
			}
			if m2, _ := job.snap.modelFor(job.services[j]); m2 == m {
				done[j] = true
				idx = append(idx, j)
				feats = append(feats, job.features[j])
			}
		}
		start := time.Now()
		diags := m.DiagnoseBatch(context.Background(), feats, job.layout)
		dur := time.Since(start)
		mShadowInferMs.Observe(telemetry.Millis(dur))
		if obs == nil {
			continue
		}
		per := dur / time.Duration(len(idx))
		for k, gi := range idx {
			inc := job.incCoarse[gi]
			sh := diags[k].Coarse
			obs(ShadowObservation{
				ServiceID:        job.services[gi],
				IncumbentVersion: job.incVersion,
				ShadowVersion:    job.snap.version,
				Incumbent:        inc,
				Shadow:           sh,
				Agree:            argmax(inc) == argmax(sh),
				IncumbentLatency: job.incPerItem,
				ShadowLatency:    per,
			})
		}
	}
}

// observerFn loads the installed observer (nil when none).
func (e *Engine) observerFn() func(ShadowObservation) {
	if p := e.observer.Load(); p != nil {
		if fn := *p; fn != nil {
			return fn
		}
	}
	return nil
}

// argmax returns the index of the largest element.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// shadowStats returns (teed, dropped).
func (e *Engine) shadowStats() (int64, int64) {
	return e.shadowTeed.Load(), e.shadowDropped.Load()
}
