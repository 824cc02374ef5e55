// Command diagnetd serves the root-cause analysis service (Fig. 1): it
// loads one or more model versions trained by diagnet-train and answers
// diagnosis requests over HTTP through the batched serving engine.
//
// Usage:
//
//	diagnetd -model model.gob [-specialized 'model.svc0.gob,model.svc1.gob'] [-addr :8421]
//	         [-model-dir models/ [-serve-version v2]]
//	         [-state-dir state/ [-fsync always|batch|never] [-profile-on-breach 500]]
//	         [-continual [-retrain-interval 1h] [-shadow-fraction 0.05] [-promote-min-gain 0]]
//	         [-batch-max 32] [-queue-depth 256] [-workers 0]
//	         [-pprof 127.0.0.1:6060] [-log-format text|json]
//	         [-trace=true] [-trace-sample 1.0] [-trace-slow 250ms]
//
// API:
//
//	POST /v1/diagnose    {"service_id":0,"landmarks":[0,1,...],"features":[...]}
//	GET  /v1/continual   continual-learning loop status (404 unless -continual)
//	POST /v1/continual/retrain   trigger a retrain cycle now
//	POST /v1/continual/samples   ingest ground-truth labeled feedback
//	GET  /v1/model
//	GET  /v1/models      registered model versions and the active one
//	POST /v1/models      {"action":"load|promote|rollback", ...} rollout admin
//	GET  /v1/metrics     per-route latency percentiles + serving queue/batch/shed metrics (JSON; exposition via Accept)
//	GET  /metrics        the same metrics in Prometheus/OpenMetrics text for scrapers
//	GET  /v1/profiles    anomaly-captured CPU/heap profile ring (404 unless -profile-on-breach)
//	GET  /v1/traces      kept request traces (slow/error always, others head-sampled)
//	GET  /v1/traces/{id} one trace as a span tree
//	GET  /healthz        liveness (204 while the process runs)
//	GET  /readyz         readiness (503 until recovery completes; 503 while draining)
//
// Tracing: every /v1 request gets a trace (continued from an incoming W3C
// traceparent header when present) whose ID is echoed in X-Trace-Id;
// -trace-sample head-samples normal traffic while slow (> -trace-slow)
// and error traces are always kept. Logs carry trace_id/span_id when
// emitted under a request context, joining them to /v1/traces.
//
// Model lifecycle: with -model-dir, every *.gob in the directory is
// registered as a version named after its file, and the lexically last
// (or -serve-version) is promoted at boot — date-stamped file names
// therefore serve the newest model. Without -model-dir, the single
// -model/-bundle file becomes version "boot". New versions can be loaded
// and promoted at runtime via POST /v1/models; a promotion warms the
// model up off the serving path and then swaps it atomically under live
// traffic, and "rollback" returns to the previously active version.
//
// Crash safety: with -state-dir, every promotion, rollback and
// specialization is journaled (write-ahead, CRC-checked) before it is
// acknowledged, and a restarted diagnetd recovers the exact serving
// version and history — recovery runs before the listener opens, so the
// first request already sees the recovered version. -fsync picks the
// journal durability policy (always = every record, batch = bounded
// loss window, never = page cache only). SIGHUP forces an immediate
// checkpoint + journal segment rotation.
//
// Continual learning: -continual closes the loop described in DESIGN.md
// §15 — every served diagnosis is buffered as a pseudo-labeled training
// sample, drift signals (or -retrain-interval, or POST
// /v1/continual/retrain) trigger a background retrain warm-started from
// the active model, the candidate shadows -shadow-fraction of live
// traffic, and a gated promotion (-promote-min-gain on labeled holdout
// accuracy) hot-swaps it in under a regression watchdog that
// auto-rolls-back. With -state-dir, the sample buffer, trainer epoch
// checkpoints and the loop's transition history live under
// <state-dir>/continual and survive restarts.
//
// -pprof serves net/http/pprof on a separate listener (keep it on a
// loopback or otherwise private address; it is intentionally not exposed
// on the public API port).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served by -pprof only
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"diagnet"
	"diagnet/internal/analysis"
	"diagnet/internal/continual"
	"diagnet/internal/durable"
	"diagnet/internal/obs"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// fatal logs at error level and exits — slog has no Fatal.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8421", "listen address")
	modelPath := flag.String("model", "model.gob", "general model file")
	bundlePath := flag.String("bundle", "", "bundle file (general + specialized); overrides -model")
	specialized := flag.String("specialized", "", "comma-separated specialized model files")
	modelDir := flag.String("model-dir", "", "directory of *.gob model versions; overrides -model/-bundle and enables POST /v1/models load")
	serveVersion := flag.String("serve-version", "", "version to promote at boot (default: lexically last in -model-dir)")
	stateDir := flag.String("state-dir", "", "durable state directory: journal + checkpoints of the model lifecycle (empty = in-memory only)")
	fsyncMode := flag.String("fsync", "always", "state journal durability: always, batch or never")
	batchMax := flag.Int("batch-max", 32, "micro-batch size cap for fused inference (batches take only what is already queued; no wait)")
	queueDepth := flag.Int("queue-depth", 256, "bounded admission queue, in samples; overflow is shed with 429")
	workers := flag.Int("workers", 0, "inference workers (0 = GOMAXPROCS)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	traceOn := flag.Bool("trace", true, "record request traces (GET /v1/traces)")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling rate for normal traces in [0,1]; slow and error traces are always kept")
	traceSlow := flag.Duration("trace-slow", 0, "latency above which a trace is always kept (0 = default 250ms)")
	profileOnBreach := flag.Float64("profile-on-breach", 0, "capture a CPU+heap profile pair when the windowed /v1/diagnose p99 exceeds this many ms; captures land under <state-dir>/profiles (0 = off)")
	continualOn := flag.Bool("continual", false, "close the learning loop: buffer live samples, retrain on drift, shadow-evaluate and gate-promote candidates")
	retrainInterval := flag.Duration("retrain-interval", 0, "also retrain on this timer (0 = drift and manual triggers only)")
	shadowFraction := flag.Float64("shadow-fraction", 0.05, "fraction of live traffic teed through a shadowing candidate")
	promoteMinGain := flag.Float64("promote-min-gain", 0, "required labeled-holdout accuracy gain (candidate − incumbent) before promotion; negative permits regressions")
	flag.Parse()

	slog.SetDefault(tracing.NewLogger(os.Stderr, *logFormat))
	rate := *traceSample
	if rate == 0 {
		rate = -1 // flag 0 means "sample nothing"; Config reads 0 as "use default"
	}
	tracing.Configure(tracing.Config{SampleRate: rate, SlowThreshold: *traceSlow})
	tracing.SetEnabled(*traceOn)

	engine := serving.New(serving.Config{
		BatchMax:   *batchMax,
		QueueDepth: *queueDepth,
		Workers:    *workers,
	})
	reg := engine.Registry()

	boot := "boot"
	switch {
	case *modelDir != "":
		versions, err := reg.LoadDir(*modelDir)
		if err != nil {
			fatal("model dir load failed", "err", err)
		}
		if len(versions) == 0 {
			fatal("no *.gob model versions", "dir", *modelDir)
		}
		boot = versions[len(versions)-1]
		if *serveVersion != "" {
			boot = *serveVersion
		}
		slog.Info("registered model versions", "count", len(versions), "dir", *modelDir)
	case *bundlePath != "":
		if err := reg.LoadFile(boot, *bundlePath); err != nil {
			fatal("bundle load failed", "err", err)
		}
	default:
		if err := reg.LoadFile(boot, *modelPath); err != nil {
			fatal("model load failed", "err", err)
		}
	}
	// State recovery runs before the boot promotion and before the
	// listener opens: a restarted diagnetd serves the last acknowledged
	// version, not the default, and no request can observe the gap.
	var persist *serving.Persistence
	if *stateDir != "" {
		policy, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatal("bad -fsync", "err", err)
		}
		persist, err = serving.OpenPersistence(*stateDir, policy)
		if err != nil {
			fatal("state dir open failed", "dir", *stateDir, "err", err)
		}
		reg.AttachPersistence(persist)
		recovered, err := persist.Recover(reg)
		switch {
		case err != nil:
			// Recovery names a version we cannot serve (model file gone,
			// warm-up failure). Fall back to the default boot choice but
			// say so loudly — this is operator-visible state loss.
			slog.Error("state recovery failed; falling back to default boot version",
				"err", err, "fallback", boot)
		case recovered != "":
			boot = recovered
			slog.Info("recovered serving state", "version", recovered,
				"history_depth", len(reg.History()), "fsync", policy.String())
		}
	}
	if reg.Active() != boot {
		if err := reg.Promote(boot); err != nil {
			fatal("boot promotion failed", "err", err)
		}
	}
	if persist != nil {
		// Compact the replayed journal into a fresh checkpoint so the next
		// restart recovers from one snapshot instead of the whole history.
		if gen, err := persist.Checkpoint(); err != nil {
			slog.Warn("boot checkpoint failed", "err", err)
		} else {
			slog.Info("boot checkpoint written", "generation", gen)
		}
	}
	cfg := engine.Config()
	slog.Info("serving model version", "version", boot,
		"batch_max", cfg.BatchMax,
		"queue_depth", cfg.QueueDepth, "workers", cfg.Workers)

	srv := analysis.NewServerFromEngine(engine)
	srv.ModelDir = *modelDir
	if *specialized != "" {
		for _, path := range strings.Split(*specialized, ",") {
			m, err := loadModel(strings.TrimSpace(path))
			if err != nil {
				fatal("specialized model load failed", "path", path, "err", err)
			}
			if m.ServiceID < 0 {
				fatal("not a specialized model", "path", path)
			}
			if err := srv.SetSpecialized(m.ServiceID, m); err != nil {
				fatal("specialized model registration failed", "path", path, "err", err)
			}
			slog.Info("loaded specialized model", "service", m.ServiceID, "path", path)
		}
	}

	// Anomaly-triggered profiling (DESIGN.md §16): a windowed p99 breach
	// over the local /v1/diagnose latency histogram captures a bounded
	// CPU+heap pprof pair into the on-disk ring under <state-dir>/profiles,
	// listed and downloadable at GET /v1/profiles.
	var stopBreachWatch func()
	if *profileOnBreach > 0 {
		if *stateDir == "" {
			slog.Warn("-profile-on-breach needs -state-dir for the capture ring; profiling disabled")
		} else {
			profDir := filepath.Join(*stateDir, "profiles")
			prof, err := obs.OpenProfiler(obs.ProfilerConfig{Dir: profDir})
			if err != nil {
				fatal("profile ring open failed", "err", err)
			}
			srv.AttachProfiler(prof)
			stopBreachWatch = watchLatencyBreach(prof, *profileOnBreach)
			slog.Info("anomaly profiling enabled", "p99_bound_ms", *profileOnBreach, "dir", profDir)
		}
	}

	// Continual learning: sample buffer → trainer → shadow gate →
	// promotion, all state under <state-dir>/continual when one is set
	// (memory-only otherwise — useful for ephemeral replicas, but a
	// restart forgets the buffer and the cycle history).
	var ctrl *continual.Controller
	var sampleStore *continual.SampleStore
	if *continualOn {
		policy := durable.FsyncBatch
		var sampleDir, ckptDir, loopDir string
		if *stateDir != "" {
			p, err := durable.ParseFsyncPolicy(*fsyncMode)
			if err != nil {
				fatal("bad -fsync", "err", err)
			}
			policy = p
			base := filepath.Join(*stateDir, "continual")
			sampleDir = filepath.Join(base, "samples")
			ckptDir = filepath.Join(base, "ckpt")
			loopDir = filepath.Join(base, "state")
		}
		var err error
		sampleStore, err = continual.OpenStore(continual.StoreConfig{Dir: sampleDir, Fsync: policy})
		if err != nil {
			fatal("continual sample store open failed", "err", err)
		}
		// The trainer reads serving pressure from the admission queue and
		// pauses between epochs while the plane is overloaded: retraining
		// must never cost live traffic its latency budget.
		depth := engine.Config().QueueDepth
		trainer, err := continual.NewTrainer(continual.TrainerConfig{
			CheckpointDir: ckptDir,
			Load: func() float64 {
				if depth <= 0 {
					return 0
				}
				return float64(engine.Stats().QueueDepth) / float64(depth)
			},
			Logf: func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) },
		})
		if err != nil {
			fatal("continual trainer init failed", "err", err)
		}
		ctrl, err = continual.NewController(continual.Config{
			Engine:          engine,
			Store:           sampleStore,
			Trainer:         trainer,
			Gate:            continual.GateConfig{MinGain: *promoteMinGain},
			ShadowFraction:  *shadowFraction,
			RetrainInterval: *retrainInterval,
			DriftStatus:     srv.DriftStatus,
			ResetDrift:      srv.ResetDrift,
			StateDir:        loopDir,
			Fsync:           policy,
		})
		if err != nil {
			fatal("continual controller init failed", "err", err)
		}
		// Freeze the drift reference once a full window of boot-model
		// diagnoses accumulates; its Drifted signal is the loop's trigger.
		srv.ResetDrift()
		ctrl.Start()
		srv.AttachContinual(ctrl)
		slog.Info("continual learning enabled",
			"retrain_interval", *retrainInterval, "shadow_fraction", *shadowFraction,
			"promote_min_gain", *promoteMinGain, "state", loopDir != "")
	}

	if *pprofAddr != "" {
		go func() {
			slog.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
			err := http.ListenAndServe(*pprofAddr, nil) // DefaultServeMux carries net/http/pprof
			slog.Error("pprof listener exited", "err", err)
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGHUP forces an immediate checkpoint + journal segment rotation —
	// the operator's "make the state compact and durable now" hook before
	// a planned restart. The span gives the log lines trace correlation.
	if persist != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				ctx, span := tracing.StartSpan(context.Background(), "state.checkpoint")
				span.SetAttr("reason", "SIGHUP")
				gen, err := persist.Checkpoint()
				if err != nil {
					span.SetError(err)
					slog.ErrorContext(ctx, "SIGHUP checkpoint failed", "err", err)
				} else {
					active, history := persist.State()
					slog.InfoContext(ctx, "SIGHUP checkpoint written",
						"generation", gen, "active", active, "history_depth", len(history))
				}
				span.End()
			}
		}()
	}

	// Recovery (if any) and the boot promotion are done: open the gate.
	srv.SetReady(true)

	// Serve until SIGINT/SIGTERM, then drain: stop accepting HTTP first,
	// then drain the serving engine so queued and in-flight diagnoses
	// finish (clients retry transient failures, but a clean drain avoids
	// failing them at all).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		slog.Info("analysis service listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		fatal("http server failed", "err", err)
	case <-ctx.Done():
		slog.Info("shutting down: draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			slog.Warn("forced shutdown", "err", err)
		}
		if stopBreachWatch != nil {
			stopBreachWatch()
		}
		if ctrl != nil {
			// Stop the loop before the engine drain: an in-flight retrain is
			// canceled (its epoch checkpoint resumes it next boot) and no new
			// shadow tee can start against a draining engine.
			if err := ctrl.Close(); err != nil {
				slog.Warn("continual controller close", "err", err)
			}
		}
		if err := srv.Close(); err != nil {
			slog.Warn("engine drain", "err", err)
		}
		if sampleStore != nil {
			if err := sampleStore.Close(); err != nil {
				slog.Warn("continual sample store close", "err", err)
			}
		}
		if persist != nil {
			if err := persist.Close(); err != nil {
				slog.Warn("state journal close", "err", err)
			}
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("http server failed", "err", err)
		}
	}
}

// watchLatencyBreach polls the process-local diagnose latency histogram
// and triggers a profile capture when the p99 of the observations made
// since the previous poll (the windowed distribution, not the lifetime
// one) exceeds boundMs. A minimum window population keeps a handful of
// slow requests after boot from reading as an incident. The returned
// func stops the watcher.
func watchLatencyBreach(p *obs.Profiler, boundMs float64) func() {
	stop := make(chan struct{})
	go func() {
		const minCount = 20
		var prev *telemetry.HistogramPoint
		t := time.NewTicker(15 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ex := telemetry.Default().Export()
				cur, ok := ex.Histogram("http.diagnose.latency_ms")
				if !ok {
					continue
				}
				window, ok := obs.SubtractHistogram(cur, prev)
				prev = cur
				if !ok || window.Count() < minCount {
					continue
				}
				if p99 := window.Quantile(0.99); p99 > boundMs {
					slog.Warn("local p99 breach; capturing profiles", "p99_ms", p99, "bound_ms", boundMs)
					p.Trigger("local-p99-breach")
				}
			}
		}
	}()
	return func() { close(stop) }
}

func loadModel(path string) (*diagnet.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return diagnet.Load(f)
}
