package continual

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/drift"
	"diagnet/internal/durable"
	"diagnet/internal/probe"
	"diagnet/internal/serving"
	"diagnet/internal/tracing"
)

// State names one phase of the continual-learning loop.
type State string

const (
	// StateIdle: no live samples buffered yet.
	StateIdle State = "idle"
	// StateCollecting: buffering live samples, waiting for a trigger.
	StateCollecting State = "collecting"
	// StateTraining: a background retrain is running.
	StateTraining State = "training"
	// StateShadowing: the candidate sees teed live traffic.
	StateShadowing State = "shadowing"
	// StatePromoting: the candidate was hot-swapped in and is under the
	// post-promotion regression watchdog.
	StatePromoting State = "promoting"
	// StateRolledBack: the watchdog detected a regression and restored
	// the previous version.
	StateRolledBack State = "rolled-back"
)

// stateCode maps states to the continual.state gauge.
var stateCode = map[State]float64{
	StateIdle: 0, StateCollecting: 1, StateTraining: 2,
	StateShadowing: 3, StatePromoting: 4, StateRolledBack: 5,
}

// Transition is one journaled state change.
type Transition struct {
	Time    time.Time `json:"time"`
	From    State     `json:"from"`
	To      State     `json:"to"`
	Reason  string    `json:"reason"`
	Cycle   int       `json:"cycle"`
	Version string    `json:"version,omitempty"`
}

// keepTransitions bounds the in-memory transition tail served by Status.
const keepTransitions = 32

// Config wires a Controller to the serving plane.
type Config struct {
	// Engine is the serving engine whose registry receives candidates and
	// whose shadow tee feeds the evaluator.
	Engine *serving.Engine
	// Store buffers live samples.
	Store *SampleStore
	// Trainer runs the background retrains (ignored when TrainFunc set).
	Trainer *Trainer
	// Gate holds the promotion criteria.
	Gate GateConfig
	// ShadowFraction of live traffic is teed through the candidate while
	// shadowing (default 0.05).
	ShadowFraction float64
	// ShadowTimeout bounds the shadowing phase; a candidate that has not
	// gathered MinShadowSamples by then faces the gate with what it has
	// (default 2m).
	ShadowTimeout time.Duration
	// RetrainInterval triggers a cycle on a timer (0 disables; drift and
	// manual triggers still work).
	RetrainInterval time.Duration
	// CheckInterval is the control-loop tick (default 1s).
	CheckInterval time.Duration
	// MinSamples is the least buffered samples before any cycle starts
	// (default 256).
	MinSamples int
	// HoldoutFrac of labeled samples is withheld for the gate's accuracy
	// proxy (default 0.2).
	HoldoutFrac float64
	// Classes is the coarse-family count (default probe.NumFamilies).
	Classes int
	// DriftStatus, when set, lets drift signals trigger cycles.
	DriftStatus func() drift.Status
	// ResetDrift, when set, re-arms the drift baseline after a promotion
	// (the old reference describes the old model).
	ResetDrift func()
	// WatchWindow is how long the regression watchdog runs after a
	// promotion (default 2m).
	WatchWindow time.Duration
	// WatchWindowSize is the watchdog detector's live window (default 64).
	WatchWindowSize int
	// WatchPSI is the watchdog's rollback threshold: how far the promoted
	// model's live prediction distribution may stray from its own vetted
	// shadow-phase behavior (default 0.25). Small windows are noisy —
	// raise this when WatchWindowSize is small relative to the class
	// count.
	WatchPSI float64
	// StateDir, when set, journals state transitions through
	// internal/durable; the cycle counter survives restarts so candidate
	// version names never collide.
	StateDir string
	// Fsync selects the transition journal's durability (default
	// durable.FsyncAlways, the zero value).
	Fsync durable.FsyncPolicy
	// Seed drives export splits and the evaluator reservoir (default 1).
	Seed int64
	// TrainFunc overrides the trainer (tests). It must return a candidate
	// bundle ready for the registry.
	TrainFunc func(ctx context.Context) (*TrainOutcome, error)
	// Logger receives progress lines (default slog.Default).
	Logger *slog.Logger
	// Now supplies the clock (default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ShadowFraction <= 0 {
		c.ShadowFraction = 0.05
	}
	if c.ShadowTimeout <= 0 {
		c.ShadowTimeout = 2 * time.Minute
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 256
	}
	if c.HoldoutFrac <= 0 {
		c.HoldoutFrac = 0.2
	}
	if c.Classes <= 0 {
		c.Classes = int(probe.NumFamilies)
	}
	if c.WatchWindow <= 0 {
		c.WatchWindow = 2 * time.Minute
	}
	if c.WatchWindowSize <= 0 {
		c.WatchWindowSize = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// TrainSummary is the Status view of the last finished retrain.
type TrainSummary struct {
	Epochs           int     `json:"epochs"`
	Resumed          bool    `json:"resumed,omitempty"`
	Specialized      []int   `json:"specialized,omitempty"`
	HoldoutSamples   int     `json:"holdout_samples"`
	HoldoutIncumbent float64 `json:"holdout_incumbent"`
	HoldoutCandidate float64 `json:"holdout_candidate"`
}

// Status is the control surface served at GET /v1/continual.
type Status struct {
	State        State          `json:"state"`
	Cycle        int            `json:"cycle"`
	StoreSamples int            `json:"store_samples"`
	StoreLabeled int            `json:"store_labeled"`
	StoreSeen    int64          `json:"store_seen"`
	Strata       int            `json:"strata"`
	Candidate    string         `json:"candidate,omitempty"`
	LastTrain    *TrainSummary  `json:"last_train,omitempty"`
	LastShadow   *ShadowSummary `json:"last_shadow,omitempty"`
	LastDecision *Decision      `json:"last_decision,omitempty"`
	LastError    string         `json:"last_error,omitempty"`
	WatchUntil   time.Time      `json:"watch_until,omitempty"`
	Transitions  []Transition   `json:"transitions,omitempty"`
}

// Controller runs the closed loop: trigger → train → shadow → gate →
// promote/rollback. One goroutine owns the cycle; triggers are
// level-checked on a ticker so concurrent cycles are impossible by
// construction.
type Controller struct {
	cfg  Config
	gate GateConfig
	jn   *durable.Journal

	mu           sync.Mutex
	state        State
	cycle        int
	candidate    string
	lastTrain    *TrainSummary
	lastShadow   *ShadowSummary
	lastDecision *Decision
	lastErr      string
	lastCycleEnd time.Time
	watchUntil   time.Time
	transitions  []Transition

	wdMu     sync.Mutex
	watchdog *drift.Detector

	trigger chan string
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
	stopped bool // Close ran: the journal is gone, Start must stay a no-op
}

// NewController builds a Controller, replaying the transition journal in
// cfg.StateDir when one exists (restores the cycle counter and the recent
// transition tail; the runtime state always restarts at idle).
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		return nil, errors.New("continual: controller needs an engine")
	}
	if cfg.Store == nil {
		return nil, errors.New("continual: controller needs a sample store")
	}
	if cfg.Trainer == nil && cfg.TrainFunc == nil {
		return nil, errors.New("continual: controller needs a trainer")
	}
	c := &Controller{
		cfg:     cfg,
		gate:    cfg.Gate.withDefaults(),
		state:   StateIdle,
		trigger: make(chan string, 1),
	}
	c.lastCycleEnd = cfg.Now()
	if cfg.StateDir != "" {
		jn, err := durable.Open(cfg.StateDir, durable.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("continual: open state journal: %w", err)
		}
		err = jn.Replay(func(payload []byte) error {
			var tr Transition
			if err := json.Unmarshal(payload, &tr); err != nil {
				return fmt.Errorf("continual: corrupt transition record: %w", err)
			}
			if tr.Cycle > c.cycle {
				c.cycle = tr.Cycle
			}
			c.transitions = append(c.transitions, tr)
			if len(c.transitions) > keepTransitions {
				c.transitions = c.transitions[1:]
			}
			return nil
		})
		if err != nil {
			jn.Close()
			return nil, err
		}
		c.jn = jn
	}
	mState.Set(stateCode[StateIdle])
	return c, nil
}

// Start launches the control loop. Idempotent; a no-op after Close (the
// journal is released — a restarted loop would write into a closed file).
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.stopped {
		return
	}
	c.started = true
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.wg.Add(1)
	go c.run()
}

// Close stops the loop (canceling any in-flight retrain) and releases the
// journal. Idempotent, and permanent: Start after Close stays stopped.
func (c *Controller) Close() error {
	c.mu.Lock()
	started := c.started
	c.started = false
	c.stopped = true
	c.mu.Unlock()
	if started {
		c.cancel()
		c.wg.Wait()
	}
	if c.jn != nil {
		return c.jn.Close()
	}
	return nil
}

// Ingest offers one live sample to the training buffer.
func (c *Controller) Ingest(smp Sample) error {
	return c.cfg.Store.Ingest(smp)
}

// ObserveServing feeds one served coarse distribution to the
// post-promotion regression watchdog (no-op outside a watch window).
func (c *Controller) ObserveServing(coarse []float64) {
	c.wdMu.Lock()
	defer c.wdMu.Unlock()
	if c.watchdog != nil {
		c.watchdog.Observe(coarse)
	}
}

// TriggerRetrain requests a cycle now (the POST /v1/continual/retrain
// handler). Fails when the loop is mid-cycle or not running.
func (c *Controller) TriggerRetrain(reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return errors.New("continual: controller not running")
	}
	switch c.state {
	case StateTraining, StateShadowing:
		return fmt.Errorf("continual: cycle already in progress (%s)", c.state)
	}
	if reason == "" {
		reason = "manual trigger"
	}
	select {
	case c.trigger <- reason:
		return nil
	default:
		return errors.New("continual: trigger already pending")
	}
}

// Status snapshots the loop for GET /v1/continual.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		State:        c.state,
		Cycle:        c.cycle,
		Candidate:    c.candidate,
		LastTrain:    c.lastTrain,
		LastShadow:   c.lastShadow,
		LastDecision: c.lastDecision,
		LastError:    c.lastErr,
		Transitions:  append([]Transition(nil), c.transitions...),
	}
	if c.state == StatePromoting {
		st.WatchUntil = c.watchUntil
	}
	st.StoreSamples = c.cfg.Store.Len()
	st.StoreLabeled = c.cfg.Store.LabeledLen()
	st.StoreSeen = c.cfg.Store.Seen()
	st.Strata = c.cfg.Store.Strata()
	return st
}

// State returns the current loop state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// transition moves the state machine, journaling and publishing the edge.
func (c *Controller) transition(to State, reason string) {
	c.mu.Lock()
	tr := Transition{
		Time: c.cfg.Now(), From: c.state, To: to,
		Reason: reason, Cycle: c.cycle, Version: c.candidate,
	}
	c.state = to
	c.transitions = append(c.transitions, tr)
	if len(c.transitions) > keepTransitions {
		c.transitions = c.transitions[1:]
	}
	c.mu.Unlock()

	mState.Set(stateCode[to])
	c.cfg.Logger.Info("continual transition",
		"from", tr.From, "to", tr.To, "reason", reason, "cycle", tr.Cycle, "version", tr.Version)
	if c.jn != nil {
		if payload, err := json.Marshal(tr); err == nil {
			if err := c.jn.Append(payload); err != nil {
				c.cfg.Logger.Warn("continual: journal transition", "err", err)
			}
		}
	}
}

// run is the control loop: one goroutine owns every cycle.
func (c *Controller) run() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case reason := <-c.trigger:
			c.runCycle(reason)
		case <-ticker.C:
			c.tick()
		}
	}
}

// tick checks triggers and the regression watchdog.
func (c *Controller) tick() {
	c.mu.Lock()
	state := c.state
	c.mu.Unlock()

	switch state {
	case StateIdle:
		if c.cfg.Store.Len() > 0 {
			c.transition(StateCollecting, "buffering live samples")
		}
	case StateCollecting, StateRolledBack:
		if reason, ok := c.shouldRetrain(); ok {
			c.runCycle(reason)
		}
	case StatePromoting:
		c.checkWatchdog()
	}
}

// shouldRetrain evaluates the drift and timer triggers.
func (c *Controller) shouldRetrain() (string, bool) {
	if c.cfg.Store.Len() < c.cfg.MinSamples {
		return "", false
	}
	if c.cfg.DriftStatus != nil {
		if st := c.cfg.DriftStatus(); st.Drifted {
			return "drift: " + st.Reason, true
		}
	}
	if c.cfg.RetrainInterval > 0 {
		c.mu.Lock()
		due := c.cfg.Now().Sub(c.lastCycleEnd) >= c.cfg.RetrainInterval
		c.mu.Unlock()
		if due {
			return "retrain interval elapsed", true
		}
	}
	return "", false
}

// runCycle executes one full train → shadow → gate → promote cycle
// synchronously on the loop goroutine.
func (c *Controller) runCycle(reason string) {
	c.mu.Lock()
	c.cycle++
	c.candidate = fmt.Sprintf("retrain-%06d", c.cycle)
	version := c.candidate
	c.lastErr = ""
	c.mu.Unlock()
	mCycles.Inc()

	ctx, span := tracing.StartSpan(c.ctx, "continual.cycle")
	span.SetAttr("reason", reason)
	span.SetAttr("version", version)
	defer span.End()
	defer func() {
		c.mu.Lock()
		c.lastCycleEnd = c.cfg.Now()
		c.candidate = ""
		c.mu.Unlock()
	}()

	// Train.
	c.transition(StateTraining, reason)
	tctx, tspan := tracing.StartSpan(ctx, "continual.train")
	out, err := c.train(tctx)
	if err != nil {
		tspan.SetError(err)
		tspan.End()
		if c.ctx.Err() != nil {
			return // shutdown, not a failure
		}
		c.fail(span, "train failed: "+err.Error())
		return
	}
	tspan.End()
	c.mu.Lock()
	c.lastTrain = &TrainSummary{
		Epochs: out.Epochs, Resumed: out.Resumed, Specialized: out.Specialized,
		HoldoutSamples: out.HoldoutSamples, HoldoutIncumbent: out.HoldoutIncumbent,
		HoldoutCandidate: out.HoldoutCandidate,
	}
	c.mu.Unlock()

	// Install as shadow and tee live traffic through it.
	reg := c.cfg.Engine.Registry()
	if err := reg.Add(version, out.Bundle); err != nil {
		c.fail(span, "register candidate: "+err.Error())
		return
	}
	if err := reg.InstallShadow(version); err != nil {
		c.fail(span, "install shadow: "+err.Error())
		return
	}
	eval := NewShadowEvaluator(c.cfg.Classes, c.cfg.Seed+int64(c.cycle))
	c.cfg.Engine.SetShadowObserver(eval.Observe)
	c.cfg.Engine.SetShadowTee(c.cfg.ShadowFraction)
	c.transition(StateShadowing, fmt.Sprintf("candidate %s shadowing %.0f%% of traffic", version, 100*c.cfg.ShadowFraction))

	sctx, sspan := tracing.StartSpan(ctx, "continual.shadow")
	_ = sctx
	c.awaitShadow(eval)
	c.cfg.Engine.SetShadowTee(0)
	c.cfg.Engine.SetShadowObserver(nil)
	summary := eval.Summary()
	sspan.SetAttr("samples", summary.Samples)
	sspan.End()
	c.mu.Lock()
	s := summary
	c.lastShadow = &s
	c.mu.Unlock()

	// Gate.
	decision := c.gate.Decide(out, summary)
	c.mu.Lock()
	d := decision
	c.lastDecision = &d
	c.mu.Unlock()
	if !decision.Promote {
		reg.DropShadow()
		mRejections.Inc()
		c.transition(StateCollecting, "rejected: "+decision.Reason)
		return
	}

	// Promote, arm the watchdog.
	_, pspan := tracing.StartSpan(ctx, "continual.promote")
	wd := c.buildWatchdog(eval)
	if err := reg.Promote(version); err != nil {
		pspan.SetError(err)
		pspan.End()
		reg.DropShadow()
		c.fail(span, "promote failed: "+err.Error())
		return
	}
	pspan.End()
	mPromotions.Inc()
	if c.cfg.ResetDrift != nil {
		c.cfg.ResetDrift()
	}
	c.wdMu.Lock()
	c.watchdog = wd
	c.wdMu.Unlock()
	c.mu.Lock()
	c.watchUntil = c.cfg.Now().Add(c.cfg.WatchWindow)
	c.mu.Unlock()
	c.transition(StatePromoting, "promoted: "+decision.Reason)
}

// fail records a cycle error and returns the loop to collecting.
func (c *Controller) fail(span *tracing.Span, msg string) {
	span.SetError(errors.New(msg))
	c.mu.Lock()
	c.lastErr = msg
	c.mu.Unlock()
	c.cfg.Logger.Warn("continual cycle failed", "err", msg)
	c.transition(StateCollecting, msg)
}

// awaitShadow waits for enough teed traffic, the shadow timeout, or
// shutdown.
func (c *Controller) awaitShadow(eval *ShadowEvaluator) {
	deadline := c.cfg.Now().Add(c.cfg.ShadowTimeout)
	poll := c.cfg.CheckInterval
	if poll > 20*time.Millisecond {
		poll = 20 * time.Millisecond
	}
	// Reused timer: time.After per iteration would pile up uncollected
	// timers at this poll rate (50 per second per shadowing cycle).
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for eval.Samples() < c.gate.MinShadowSamples && c.cfg.Now().Before(deadline) {
		if timer == nil {
			timer = time.NewTimer(poll)
		} else {
			timer.Reset(poll)
		}
		select {
		case <-c.ctx.Done():
			return
		case <-timer.C:
		}
	}
}

// train runs the configured retrain path.
func (c *Controller) train(ctx context.Context) (*TrainOutcome, error) {
	if c.cfg.TrainFunc != nil {
		return c.cfg.TrainFunc(ctx)
	}
	bundle, _, err := c.cfg.Engine.Registry().ActiveBundle()
	if err != nil {
		return nil, err
	}
	base := bundle.General
	c.mu.Lock()
	seed := c.cfg.Seed + int64(c.cycle)
	c.mu.Unlock()
	train, holdout := c.cfg.Store.Export(base.FullLayout, c.cfg.HoldoutFrac, seed)
	if train.Len() == 0 {
		return nil, errors.New("continual: export produced no training samples")
	}
	return c.cfg.Trainer.Train(ctx, base, train, holdout)
}

// buildWatchdog seeds a fresh drift detector with the candidate's
// shadow-phase coarse distributions — the pre-promotion reference the
// post-promotion live traffic is compared against: production behavior
// must keep matching what the gate vetted, whether the divergence comes
// from a serving-path difference or from traffic shifting right after
// the swap. Returns nil when the shadow phase produced too little
// baseline to judge regressions.
func (c *Controller) buildWatchdog(eval *ShadowEvaluator) *drift.Detector {
	baseline := eval.Baseline()
	if len(baseline) < 8 {
		return nil
	}
	det := drift.NewDetector(c.cfg.Classes, drift.Config{
		WindowSize:   c.cfg.WatchWindowSize,
		PSIThreshold: c.cfg.WatchPSI,
		Now:          c.cfg.Now,
	})
	for _, v := range baseline {
		det.Observe(v)
	}
	det.Freeze()
	return det
}

// checkWatchdog polls the regression watchdog during the watch window.
func (c *Controller) checkWatchdog() {
	c.wdMu.Lock()
	wd := c.watchdog
	var st drift.Status
	if wd != nil {
		st = wd.Status()
	}
	c.wdMu.Unlock()

	c.mu.Lock()
	expired := c.cfg.Now().After(c.watchUntil)
	c.mu.Unlock()

	if wd != nil && st.Drifted {
		restored, err := c.cfg.Engine.Registry().Rollback()
		c.wdMu.Lock()
		c.watchdog = nil
		c.wdMu.Unlock()
		mRollbacks.Inc()
		if err != nil {
			c.mu.Lock()
			c.lastErr = fmt.Sprintf("regression detected (%s) but rollback failed: %v", st.Reason, err)
			msg := c.lastErr
			c.mu.Unlock()
			c.cfg.Logger.Error("continual rollback failed", "err", msg)
			c.transition(StateCollecting, msg)
			return
		}
		c.transition(StateRolledBack, fmt.Sprintf("regression: %s; restored %q", st.Reason, restored))
		return
	}
	if expired {
		c.wdMu.Lock()
		c.watchdog = nil
		c.wdMu.Unlock()
		c.transition(StateCollecting, "watch window passed clean")
	}
}

// Bundle re-exports core.Bundle for TrainFunc implementors.
type Bundle = core.Bundle
