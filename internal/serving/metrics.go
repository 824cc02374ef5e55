package serving

import "diagnet/internal/telemetry"

// Serving-plane metrics (DESIGN.md §11): queue pressure, batching shape,
// shedding and model lifecycle. Resolved once at init so the hot path pays
// only atomic operations; GET /v1/metrics exposes them alongside the rest
// of the registry.
var (
	mQueueDepth   = telemetry.Default().Gauge("serving.queue.depth")
	mBatchSize    = telemetry.Default().Histogram("serving.batch.size", telemetry.SizeBuckets)
	mBatchFormMs  = telemetry.Default().Histogram("serving.batch.wait_ms", nil)
	mServed       = telemetry.Default().Counter("serving.requests.served")
	mShedFull     = telemetry.Default().Counter("serving.shed.queue_full")
	mShedExpired  = telemetry.Default().Counter("serving.shed.expired")
	mShedCanceled = telemetry.Default().Counter("serving.shed.canceled")
	mPanics       = telemetry.Default().Counter("serving.worker.panics")
	mSwaps        = telemetry.Default().Counter("serving.model.swaps")
	mWarmups      = telemetry.Default().Counter("serving.model.warmups")

	// State-plane recovery (DESIGN.md §13): lifecycle records replayed
	// from the journal at boot, and successful active-version recoveries.
	mStateReplayed  = telemetry.Default().Counter("serving.state.records_replayed")
	mStateRecovered = telemetry.Default().Counter("serving.state.recovered")

	// Shadow evaluation (DESIGN.md §15): candidate installs, samples teed
	// through the candidate, samples dropped because the tee queue was
	// full (the tee never blocks the serving path), shadow-model panics,
	// and the candidate's fused-pass latency.
	mShadowInstalls = telemetry.Default().Counter("serving.shadow.installs")
	mShadowTeed     = telemetry.Default().Counter("serving.shadow.teed")
	mShadowDropped  = telemetry.Default().Counter("serving.shadow.dropped")
	mShadowPanics   = telemetry.Default().Counter("serving.shadow.panics")
	mShadowInferMs  = telemetry.Default().Histogram("serving.shadow.infer_ms", nil)
)
