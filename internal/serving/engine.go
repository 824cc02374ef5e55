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

// item is one queued submission: one or more samples admitted together.
// The dispatcher never splits a submission across batches, so one worker
// settles all of its samples.
type item struct {
	ctx   context.Context
	reqs  []*Request
	qspan *tracing.Span // "serving.queue_wait": opened at admission, closed when a batch picks the item up (or on shed)

	// res[k]/errs[k] hold sample k's outcome. They are written by whoever
	// settles the item (dispatcher or worker) and read by the submitter
	// only after done is closed.
	res  []*Result
	errs []error
	left int           // samples not yet settled
	done chan struct{} // closed once every sample is settled
}

func newItem(ctx context.Context, reqs []*Request) *item {
	return &item{
		ctx:  ctx,
		reqs: reqs,
		res:  make([]*Result, len(reqs)),
		errs: make([]error, len(reqs)),
		left: len(reqs),
		done: make(chan struct{}),
	}
}

// settle records sample k's outcome and releases the submitter once the
// last sample is in.
func (it *item) settle(k int, res *Result, err error) {
	it.res[k], it.errs[k] = res, err
	if it.left--; it.left == 0 {
		close(it.done)
	}
}

// fail settles every sample with err and closes the queue-wait span.
func (it *item) fail(err error) {
	it.qspan.SetError(err)
	it.qspan.End()
	for k := range it.reqs {
		it.settle(k, nil, err)
	}
}

// wait blocks until the item is settled or ctx ends. An outcome that is
// already in wins over a concurrent cancellation.
func (it *item) wait(ctx context.Context) error {
	select {
	case <-it.done:
		return nil
	case <-ctx.Done():
		select {
		case <-it.done:
			return nil
		default:
			return ctxErr(ctx)
		}
	}
}

// Engine is the batched inference engine: a bounded submission queue, a
// dispatcher that coalesces whatever is already queued into micro-batches,
// and a worker pool that executes them against the shared, read-only
// models. See the package comment for the policy; see New for lifecycle.
type Engine struct {
	cfg Config
	reg *Registry

	// mu guards queue against send-after-close: admission holds it shared
	// for the enqueue, Close holds it exclusively around close(queue).
	mu     sync.RWMutex
	closed bool

	// slots holds one token per queued sample, so QueueDepth bounds
	// samples, not submissions; the dispatcher frees a submission's
	// tokens when it picks it up. admit serializes blocking reservations,
	// so two multi-sample submissions can never each hold half the free
	// slots and wait on one another.
	slots   chan struct{}
	admit   chan struct{}
	queue   chan *item
	batches chan []*item

	dispatcherWG sync.WaitGroup
	workerWG     sync.WaitGroup

	depth        atomic.Int64 // queued samples
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
	e := build(cfg)
	e.dispatcherWG.Add(1)
	go e.dispatch()
	for w := 0; w < e.cfg.Workers; w++ {
		e.workerWG.Add(1)
		go e.worker(w)
	}
	e.shadowWG.Add(1)
	go e.shadowWorker()
	return e
}

// build allocates an engine without starting any goroutine.
func build(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:      cfg,
		reg:      NewRegistry(),
		slots:    make(chan struct{}, cfg.QueueDepth),
		admit:    make(chan struct{}, 1),
		queue:    make(chan *item, cfg.QueueDepth),
		batches:  make(chan []*item, cfg.Workers),
		shadowCh: make(chan *shadowJob, cfg.QueueDepth),
	}
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
	n := int64(len(it.reqs))
	if errors.Is(err, context.Canceled) {
		e.shedCanceled.Add(n)
		mShedCanceled.Add(n)
	} else {
		e.shedExpired.Add(n)
		mShedExpired.Add(n)
	}
	it.fail(err)
}

// Submit enqueues one request and waits for its result. Admission is
// non-blocking: a full queue sheds the request immediately with
// ErrQueueFull (HTTP: 429 + Retry-After) instead of building an unbounded
// convoy. The context bounds the whole wait; a request whose context
// expires while queued is dropped before it reaches a model.
func (e *Engine) Submit(ctx context.Context, req *Request) (*Result, error) {
	res, errs := e.submit(ctx, []*Request{req}, false)
	return res[0], errs[0]
}

// SubmitWait is Submit with blocking admission: instead of shedding on a
// full queue it waits for space (still bounded by ctx).
func (e *Engine) SubmitWait(ctx context.Context, req *Request) (*Result, error) {
	res, errs := e.SubmitBatch(ctx, []*Request{req})
	return res[0], errs[0]
}

// SubmitBatch diagnoses a group of requests — the batch endpoint's whole
// HTTP batch — and returns their results in input order, with a
// per-sample error. The group is enqueued as whole submissions of at most
// BatchMax samples each (and never more than QueueDepth), with blocking
// admission like SubmitWait, so a large group squeezes through a small
// queue instead of shedding itself and each submission lands in a batch
// of its own samples without waiting on timers or goroutine scheduling.
func (e *Engine) SubmitBatch(ctx context.Context, reqs []*Request) ([]*Result, []error) {
	return e.submit(ctx, reqs, true)
}

func (e *Engine) submit(ctx context.Context, reqs []*Request, wait bool) ([]*Result, []error) {
	res := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	fill := func(lo, hi int, err error) {
		for i := lo; i < hi; i++ {
			errs[i] = err
		}
	}
	if err := ctx.Err(); err != nil {
		fill(0, len(reqs), err)
		return res, errs
	}
	if e.reg.current() == nil {
		fill(0, len(reqs), ErrNoModel)
		return res, errs
	}
	size := min(e.cfg.BatchMax, e.cfg.QueueDepth)
	var items []*item
	for lo := 0; lo < len(reqs); lo += size {
		hi := min(lo+size, len(reqs))
		// The queue-wait span covers admission through batch pickup; its
		// End moves to whichever path settles the item (serveGroup on the
		// worker, or a shed path).
		qctx, qspan := tracing.StartSpan(ctx, "serving.queue_wait")
		it := newItem(qctx, reqs[lo:hi])
		it.qspan = qspan
		if err := e.enqueue(it, wait); err != nil {
			qspan.SetError(err)
			qspan.End()
			fill(lo, len(reqs), err)
			break
		}
		items = append(items, it)
	}
	for i, it := range items {
		lo := i * size
		if err := it.wait(ctx); err != nil {
			// The item stays queued; the dispatcher or a worker will notice
			// the dead context and drop it without diagnosing.
			fill(lo, lo+len(it.reqs), err)
			continue
		}
		copy(res[lo:], it.res)
		copy(errs[lo:], it.errs)
	}
	return res, errs
}

// enqueue reserves one queue slot per sample of it and queues it. Without
// wait a full queue sheds the submission with ErrQueueFull; with wait it
// blocks for space, bounded by the item's context.
func (e *Engine) enqueue(it *item, wait bool) error {
	n := len(it.reqs)
	if err := e.reserve(it.ctx, n, wait); err != nil {
		if errors.Is(err, ErrQueueFull) {
			e.shedFull.Add(int64(n))
			mShedFull.Add(int64(n))
		}
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.release(n)
		return ErrClosed
	}
	mQueueDepth.Set(float64(e.depth.Add(int64(n))))
	e.queue <- it // never blocks: every queued item holds at least one slot
	return nil
}

// reserve takes n queue slots, all or none.
func (e *Engine) reserve(ctx context.Context, n int, wait bool) error {
	if wait {
		select {
		case e.admit <- struct{}{}:
			defer func() { <-e.admit }()
		case <-ctx.Done():
			return ctxErr(ctx)
		}
	}
	for i := 0; i < n; i++ {
		if wait {
			select {
			case e.slots <- struct{}{}:
				continue
			case <-ctx.Done():
				e.release(i)
				return ctxErr(ctx)
			}
		}
		select {
		case e.slots <- struct{}{}:
		default:
			e.release(i)
			return ErrQueueFull
		}
	}
	return nil
}

// release frees n queue slots.
func (e *Engine) release(n int) {
	for i := 0; i < n; i++ {
		<-e.slots
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

// pickup takes it off the queue: it frees the item's slots and settles it
// on the spot if its caller is gone (a canceled hedge loser, an expired
// deadline), so a dead item never seeds a batch or occupies a slot. It
// reports whether the item is live.
func (e *Engine) pickup(it *item) bool {
	e.depth.Add(-int64(len(it.reqs)))
	e.release(len(it.reqs))
	if err := it.ctx.Err(); err != nil {
		e.shedDead(it, err)
		return false
	}
	return true
}

// dispatch coalesces queued submissions into micro-batches with zero
// wait: it blocks for the first live submission, then takes without
// blocking whatever else is already queued, up to BatchMax samples, and
// flushes. No timer holds a lone request back. Under load the queue fills
// while the workers are busy, so batches grow by themselves. Submissions
// are never split: one that would overflow the current batch leads the
// next.
func (e *Engine) dispatch() {
	defer e.dispatcherWG.Done()
	defer close(e.batches)

	var next *item // a live submission that did not fit the last batch
	for {
		lead := next
		for lead == nil {
			it, ok := <-e.queue
			if !ok {
				return
			}
			if e.pickup(it) {
				lead = it
			}
		}
		next = nil
		start := time.Now()
		batch, n := []*item{lead}, len(lead.reqs)
		open := true
	drain:
		for n < e.cfg.BatchMax {
			select {
			case it, ok := <-e.queue:
				if !ok {
					open = false
					break drain
				}
				if !e.pickup(it) {
					continue
				}
				if n+len(it.reqs) > e.cfg.BatchMax {
					next = it
					break drain
				}
				batch = append(batch, it)
				n += len(it.reqs)
			default:
				break drain
			}
		}
		mQueueDepth.Set(float64(e.depth.Load()))
		mBatchSize.Observe(float64(n))
		mBatchFormMs.Observe(telemetry.Millis(time.Since(start)))

		e.batches <- batch
		if !open {
			return
		}
	}
}

// worker executes micro-batches. Each batch is served by exactly one
// registry snapshot (one atomic load), so responses are attributable to
// exactly one model version even while a promotion swaps the pointer
// mid-stream. Within a batch, samples are grouped by (model, layout) and
// every group runs as one fused forward/backward pass on the shared model.
func (e *Engine) worker(id int) {
	defer e.workerWG.Done()
	for batch := range e.batches {
		snap := e.reg.current()
		e.serveBatch(snap, id, batch)
	}
}

// sample addresses one request inside a queued submission.
type sample struct {
	it *item
	k  int
}

func (s sample) req() *Request { return s.it.reqs[s.k] }

// serveBatch groups the live samples of a batch and diagnoses each group
// in one fused pass.
func (e *Engine) serveBatch(snap *snapshot, worker int, batch []*item) {
	var live []sample
	for _, it := range batch {
		// Deadline-aware shedding: a request that died between batch
		// formation and pickup is dropped here, before any model work.
		if err := it.ctx.Err(); err != nil {
			e.shedDead(it, err)
			continue
		}
		if snap == nil {
			it.fail(ErrNoModel)
			continue
		}
		for k := range it.reqs {
			live = append(live, sample{it, k})
		}
	}

	// Group by (model, service, layout): samples served by the same model
	// for the same service with the same landmark set share one batched
	// inference (the service keeps provenance exact even when one model
	// serves several services). grouped tracks samples already assigned.
	grouped := make([]bool, len(live))
	var members []sample
	var features [][]float64
	for i, lead := range live {
		if grouped[i] {
			continue
		}
		m, svc := snap.modelFor(lead.req().ServiceID)
		members = append(members[:0], lead)
		features = append(features[:0], lead.req().Features)
		for j := i + 1; j < len(live); j++ {
			if grouped[j] {
				continue
			}
			r := live[j].req()
			m2, svc2 := snap.modelFor(r.ServiceID)
			if m2 == m && svc2 == svc && layoutEqual(lead.req().Layout, r.Layout) {
				grouped[j] = true
				members = append(members, live[j])
				features = append(features, r.Features)
			}
		}
		e.serveGroup(snap, worker, m, svc, lead.req().Layout, members, features)
	}
}

// serveGroup runs one fused pass over a same-layout group, recovering a
// panicking model into per-sample errors instead of killing the worker.
//
// Trace topology: the "serving.batch" span is a child of the group lead's
// queue-wait span (the lead is always its own lead, so a lone request gets
// the full route → queue_wait → batch → core.diagnose nesting), and
// cross-links tie the fusion together — the batch span links to every
// member submission's queue-wait span, and every other member's queue-wait
// span links back to the batch span that served it, so a member's trace
// still reaches the shared inference work even though that work was
// recorded under the lead's trace. A submission whose samples fall into
// several groups links back to the first.
func (e *Engine) serveGroup(snap *snapshot, worker int, m *core.Model, svc int, layout probe.Layout, members []sample, features [][]float64) {
	lead := members[0].it
	bctx, bspan := tracing.StartSpan(lead.ctx, "serving.batch")
	bspan.SetAttr("batch.size", len(members))
	bspan.SetAttr("model.version", snap.version)
	bspan.SetAttr("worker", worker)
	bref := bspan.Context()
	var prev *item
	for _, s := range members {
		if s.it == prev {
			continue // a submission's samples are contiguous in a group
		}
		prev = s.it
		bspan.Link(s.it.qspan.Context())
		if s.it != lead {
			s.it.qspan.Link(bref)
		}
		s.it.qspan.End() // queue wait is over: the batch has picked the item up
	}
	defer func() {
		if rec := recover(); rec != nil {
			mPanics.Inc()
			err := fmt.Errorf("serving: model panic: %v", rec)
			bspan.SetError(err)
			bspan.End()
			for _, s := range members {
				if s.it.res[s.k] == nil { // not answered before the panic
					s.it.settle(s.k, nil, err)
				}
			}
		}
	}()
	inferStart := time.Now()
	diags := m.DiagnoseBatch(bctx, features, layout)
	inferDur := time.Since(inferStart)
	bspan.End()
	for k, s := range members {
		e.served.Add(1)
		mServed.Inc()
		s.it.settle(s.k, &Result{
			Diagnosis:    diags[k],
			ModelService: svc,
			Version:      snap.version,
		}, nil)
	}
	// Shadow tee, strictly after every member has its answer: a sampled
	// copy of the group replays through the candidate off-path.
	if e.ShadowTee() > 0 {
		svcs := make([]int, len(members))
		incCoarse := make([][]float64, len(members))
		for k, s := range members {
			svcs[k] = s.req().ServiceID
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
