package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// item is one queued submission.
type item struct {
	ctx   context.Context
	req   *Request
	qspan *tracing.Span // "serving.queue_wait": opened at admission, closed when a batch picks the item up (or on shed)
	done  chan outcome  // buffered(1): workers never block on abandoned waiters
}

type outcome struct {
	res *Result
	err error
}

// Engine is the batched inference engine: a bounded submission queue, a
// dispatcher that coalesces submissions into adaptive micro-batches, and a
// worker pool that executes them against the shared, read-only models.
// See the package comment for the policy; see New for lifecycle.
type Engine struct {
	cfg Config
	reg *Registry

	// mu guards queue against send-after-close: Submit holds it shared for
	// the enqueue, Close holds it exclusively around close(queue).
	mu     sync.RWMutex
	closed bool

	queue   chan *item
	batches chan []*item

	dispatcherWG sync.WaitGroup
	workerWG     sync.WaitGroup

	depth        atomic.Int64
	served       atomic.Int64
	shedFull     atomic.Int64
	shedExpired  atomic.Int64
	shedCanceled atomic.Int64

	// Shadow tee (shadow.go): sampled replay of served requests through a
	// candidate version, strictly off the serving path.
	teeFracBits   atomic.Uint64
	teeSeen       atomic.Int64
	teeSent       atomic.Int64
	shadowTeed    atomic.Int64
	shadowDropped atomic.Int64
	observer      atomic.Pointer[func(ShadowObservation)]
	shadowCh      chan *shadowJob
	shadowWG      sync.WaitGroup
	shadowOnce    sync.Once
}

// New starts an engine: the dispatcher and cfg.Workers workers spin up
// immediately, but submissions fail with ErrNoModel until a version is
// promoted through Registry(). Call Close to drain and stop.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		reg:      NewRegistry(),
		queue:    make(chan *item, cfg.QueueDepth),
		batches:  make(chan []*item, cfg.Workers),
		shadowCh: make(chan *shadowJob, cfg.QueueDepth),
	}
	e.dispatcherWG.Add(1)
	go e.dispatch()
	for w := 0; w < cfg.Workers; w++ {
		e.workerWG.Add(1)
		go e.worker(w)
	}
	e.shadowWG.Add(1)
	go e.shadowWorker()
	return e
}

// Registry returns the engine's model registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns the admission counters.
func (e *Engine) Stats() Stats {
	teed, dropped := e.shadowStats()
	return Stats{
		Served:        e.served.Load(),
		ShedFull:      e.shedFull.Load(),
		ShedExpired:   e.shedExpired.Load(),
		ShedCanceled:  e.shedCanceled.Load(),
		QueueDepth:    int(e.depth.Load()),
		ShadowTeed:    teed,
		ShadowDropped: dropped,
	}
}

// shedDead settles an item whose context died while queued: the caller is
// gone, so the item must not consume a batch slot or reach a model.
// Cancellations and expired deadlines are counted apart — a hedging router
// cancels its losing duplicate on every hedge, so canceled drops are the
// normal currency of tail-latency hedging while expired ones signal real
// overload. The dispatcher calls this while forming batches, which is what
// keeps a canceled hedge loser from displacing a live request out of a
// micro-batch.
func (e *Engine) shedDead(it *item, err error) {
	if errors.Is(err, context.Canceled) {
		e.shedCanceled.Add(1)
		mShedCanceled.Inc()
	} else {
		e.shedExpired.Add(1)
		mShedExpired.Inc()
	}
	it.qspan.SetError(err)
	it.qspan.End()
	it.done <- outcome{err: err}
}

// Submit enqueues one request and waits for its result. Admission is
// non-blocking: a full queue sheds the request immediately with
// ErrQueueFull (HTTP: 429 + Retry-After) instead of building an unbounded
// convoy. The context bounds the whole wait; a request whose context
// expires while queued is dropped before it reaches a model.
func (e *Engine) Submit(ctx context.Context, req *Request) (*Result, error) {
	return e.submit(ctx, req, false)
}

// SubmitWait is Submit with blocking admission: instead of shedding on a
// full queue it waits for space (still bounded by ctx). Bulk paths — the
// batch endpoint fanning one HTTP request into many submissions — use this
// so a large batch squeezes through a small queue instead of shedding
// itself.
func (e *Engine) SubmitWait(ctx context.Context, req *Request) (*Result, error) {
	return e.submit(ctx, req, true)
}

func (e *Engine) submit(ctx context.Context, req *Request, wait bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.reg.current() == nil {
		return nil, ErrNoModel
	}
	// The queue-wait span covers admission through batch pickup; its End
	// moves to whichever path settles the item (serveBatch/serveGroup on
	// the worker, or the shed paths right here).
	qctx, qspan := tracing.StartSpan(ctx, "serving.queue_wait")
	it := &item{ctx: qctx, req: req, qspan: qspan, done: make(chan outcome, 1)}

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		qspan.SetError(ErrClosed)
		qspan.End()
		return nil, ErrClosed
	}
	if wait {
		// Blocking enqueue under the read lock is safe: the dispatcher
		// keeps draining the queue, so the send always makes progress and
		// Close simply waits its turn behind us.
		select {
		case e.queue <- it:
			e.mu.RUnlock()
		case <-ctx.Done():
			e.mu.RUnlock()
			err := ctxErr(ctx)
			qspan.SetError(err)
			qspan.End()
			return nil, err
		}
	} else {
		select {
		case e.queue <- it:
			e.mu.RUnlock()
		default:
			e.mu.RUnlock()
			e.shedFull.Add(1)
			mShedFull.Inc()
			qspan.SetError(ErrQueueFull)
			qspan.End()
			return nil, ErrQueueFull
		}
	}
	e.depth.Add(1)
	mQueueDepth.Set(float64(e.depth.Load()))

	select {
	case out := <-it.done:
		return out.res, out.err
	case <-ctx.Done():
		// The item stays queued; a worker will notice the dead context and
		// drop it without diagnosing.
		return nil, ctxErr(ctx)
	}
}

// Close stops admission, drains queued and in-flight work, and waits for
// the dispatcher and workers to exit (bounded by ctx). Submissions racing
// with Close either make it into the queue — and are served — or get
// ErrClosed.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.dispatcherWG.Wait()
		e.workerWG.Wait()
		// Workers are the only shadow producers; with them gone the tee
		// queue can close and the executor drains what is left.
		e.shadowOnce.Do(func() { close(e.shadowCh) })
		e.shadowWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serving: drain interrupted: %w", ctx.Err())
	}
}

// dispatch coalesces queued items into micro-batches. A batch flushes when
// it reaches BatchMax or when the adaptive wait expires, whichever first.
// The wait is BatchWait scaled by an EWMA of recent batch occupancy: when
// batches have been running near-empty (light load) the next lone request
// waits only a sliver of BatchWait, and as soon as batches start filling
// the wait stretches back out to coalesce harder. Under heavy backlog the
// timer is moot — the fill loop drains the queue without ever parking.
func (e *Engine) dispatch() {
	defer e.dispatcherWG.Done()
	defer close(e.batches)

	// Start latency-biased: the first requests after boot are served
	// almost immediately.
	fill := 1 / float64(e.cfg.BatchMax)
	for {
		// Pull the batch lead, settling abandoned items (canceled hedge
		// losers, expired deadlines) on the spot: a dead item must not seed
		// a batch, hold the adaptive-wait timer open, or occupy a slot.
		var first *item
		for first == nil {
			it, ok := <-e.queue
			if !ok {
				return
			}
			e.depth.Add(-1)
			if err := it.ctx.Err(); err != nil {
				e.shedDead(it, err)
				continue
			}
			first = it
		}
		start := time.Now()
		batch := make([]*item, 1, e.cfg.BatchMax)
		batch[0] = first

		wait := time.Duration(fill * float64(e.cfg.BatchWait))
		timer := time.NewTimer(wait)
		closed := false
	fillLoop:
		for len(batch) < e.cfg.BatchMax {
			select {
			case it, ok := <-e.queue:
				if !ok {
					closed = true
					break fillLoop
				}
				e.depth.Add(-1)
				if err := it.ctx.Err(); err != nil {
					e.shedDead(it, err)
					continue
				}
				batch = append(batch, it)
			case <-timer.C:
				break fillLoop
			}
		}
		timer.Stop()

		// EWMA of occupancy adapts the next wait; α=0.25 follows load
		// shifts within a handful of batches without jittering on one-offs.
		fill = 0.75*fill + 0.25*float64(len(batch))/float64(e.cfg.BatchMax)
		mQueueDepth.Set(float64(e.depth.Load()))
		mBatchSize.Observe(float64(len(batch)))
		mBatchWaitMs.Observe(telemetry.Millis(time.Since(start)))

		e.batches <- batch
		if closed {
			return
		}
	}
}

// worker executes micro-batches. Each batch is served by exactly one
// registry snapshot (one atomic load), so responses are attributable to
// exactly one model version even while a promotion swaps the pointer
// mid-stream. Within a batch, items are grouped by (model, layout) and
// every group runs as one fused forward/backward pass on the shared model.
func (e *Engine) worker(id int) {
	defer e.workerWG.Done()
	for batch := range e.batches {
		snap := e.reg.current()
		e.serveBatch(snap, id, batch)
	}
}

// serveBatch groups live items and diagnoses each group in one fused pass.
func (e *Engine) serveBatch(snap *snapshot, worker int, batch []*item) {
	live := batch[:0]
	for _, it := range batch {
		// Deadline-aware shedding: a request that died between batch
		// formation and pickup is dropped here, before any model work.
		if err := it.ctx.Err(); err != nil {
			e.shedDead(it, err)
			continue
		}
		if snap == nil {
			it.qspan.SetError(ErrNoModel)
			it.qspan.End()
			it.done <- outcome{err: ErrNoModel}
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}

	// Group by (model, layout): items served by the same model with the
	// same landmark set share one batched inference. grouped tracks items
	// already assigned.
	grouped := make([]bool, len(live))
	var members []*item
	var features [][]float64
	for i, lead := range live {
		if grouped[i] {
			continue
		}
		m, svc := snap.modelFor(lead.req.ServiceID)
		members = append(members[:0], lead)
		features = append(features[:0], lead.req.Features)
		for j := i + 1; j < len(live); j++ {
			if grouped[j] {
				continue
			}
			m2, _ := snap.modelFor(live[j].req.ServiceID)
			if m2 == m && layoutEqual(lead.req.Layout, live[j].req.Layout) {
				grouped[j] = true
				members = append(members, live[j])
				features = append(features, live[j].req.Features)
			}
		}
		e.serveGroup(snap, worker, m, svc, lead.req.Layout, members, features)
	}
}

// serveGroup runs one fused pass over a same-layout group, recovering a
// panicking model into per-item errors instead of killing the worker.
//
// Trace topology: the "serving.batch" span is a child of the group lead's
// queue-wait span (the lead is always its own lead, so a lone request gets
// the full route → queue_wait → batch → core.diagnose nesting), and
// cross-links tie the fusion together — the batch span links to every
// member's queue-wait span, and every non-lead member's queue-wait span
// links back to the batch span that served it, so a member's trace still
// reaches the shared inference work even though that work was recorded
// under the lead's trace.
func (e *Engine) serveGroup(snap *snapshot, worker int, m *core.Model, svc int, layout probe.Layout, members []*item, features [][]float64) {
	lead := members[0]
	bctx, bspan := tracing.StartSpan(lead.ctx, "serving.batch")
	bspan.SetAttr("batch.size", len(members))
	bspan.SetAttr("model.version", snap.version)
	bspan.SetAttr("worker", worker)
	bref := bspan.Context()
	for _, it := range members {
		bspan.Link(it.qspan.Context())
		if it != lead {
			it.qspan.Link(bref)
		}
		it.qspan.End() // queue wait is over: the batch has picked the item up
	}
	defer func() {
		if rec := recover(); rec != nil {
			mPanics.Inc()
			err := fmt.Errorf("serving: model panic: %v", rec)
			bspan.SetError(err)
			bspan.End()
			for _, it := range members {
				select {
				case it.done <- outcome{err: err}:
				default: // already answered before the panic
				}
			}
		}
	}()
	inferStart := time.Now()
	diags := m.DiagnoseBatch(bctx, features, layout)
	inferDur := time.Since(inferStart)
	bspan.End()
	for k, it := range members {
		e.served.Add(1)
		mServed.Inc()
		it.done <- outcome{res: &Result{
			Diagnosis:    diags[k],
			ModelService: svc,
			Version:      snap.version,
		}}
	}
	// Shadow tee, strictly after every member has its answer: a sampled
	// copy of the group replays through the candidate off-path.
	if e.ShadowTee() > 0 {
		svcs := make([]int, len(members))
		incCoarse := make([][]float64, len(members))
		for k, it := range members {
			svcs[k] = it.req.ServiceID
			incCoarse[k] = diags[k].Coarse
		}
		e.maybeTee(svcs, layout, features, incCoarse, snap.version, inferDur)
	}
}

// layoutEqual reports whether two layouts probe the same landmark regions
// in the same order.
func layoutEqual(a, b probe.Layout) bool {
	if len(a.Landmarks) != len(b.Landmarks) {
		return false
	}
	for i := range a.Landmarks {
		if a.Landmarks[i] != b.Landmarks[i] {
			return false
		}
	}
	return true
}
