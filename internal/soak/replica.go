package soak

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/durable"
	"diagnet/internal/obs"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
)

// replica is one in-process diagnetd stack: serving engine, analysis
// server, durable state plane and an HTTP listener on a stable loopback
// address, with its OWN telemetry registry so the federation-exactness
// invariant sums genuinely distinct sources. kill closes the listener
// abruptly (what a crash looks like to the router); restart drains the
// old stack, replays the journal and comes back on the same address.
type replica struct {
	index    int
	model    *core.Model
	stateDir string

	reg *telemetry.Registry

	mu      sync.Mutex
	addr    string
	engine  *serving.Engine
	srv     *analysis.Server
	persist *serving.Persistence
	httpSrv *http.Server
	up      bool
}

// startReplica boots a replica on an ephemeral loopback port.
func startReplica(index int, model *core.Model, stateDir string) (*replica, error) {
	r := &replica{index: index, model: model, stateDir: stateDir, reg: telemetry.New()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soak: replica %d listen: %w", index, err)
	}
	r.addr = ln.Addr().String()
	if err := r.boot(ln); err != nil {
		ln.Close()
		return nil, err
	}
	return r, nil
}

// boot builds the stack (engine, recovery, server) and serves on ln.
// Caller holds no locks.
func (r *replica) boot(ln net.Listener) error {
	e := serving.New(serving.Config{BatchMax: 8, QueueDepth: 256})
	fail := func(stage string, err error) error {
		e.Close(context.Background())
		return fmt.Errorf("soak: replica %d %s: %w", r.index, stage, err)
	}
	reg := e.Registry()
	// Same order as diagnetd: register the boot model, attach the state
	// log, replay it (recovery re-promotes the last acknowledged version),
	// and only fall back to promoting boot on a fresh state dir.
	if err := reg.AddModel("boot", r.model); err != nil {
		return fail("boot model", err)
	}
	persist, err := serving.OpenPersistence(r.stateDir, durable.FsyncBatch)
	if err != nil {
		return fail("persistence", err)
	}
	reg.AttachPersistence(persist)
	recovered, err := persist.Recover(reg)
	if err != nil {
		persist.Close()
		return fail("journal replay", err)
	}
	if recovered == "" {
		if err := reg.Promote("boot"); err != nil {
			persist.Close()
			return fail("boot promote", err)
		}
	}
	srv := analysis.NewServerFromEngine(e)
	srv.SetReady(true)

	// Per-replica instrumentation: the analysis handlers record into the
	// process-global registry (useless for federation when every replica
	// shares the process), so the federated routes are counted here, into
	// this replica's own registry — the same wiring the observability
	// example uses for multi-replica-in-one-process fleets.
	inner := srv.Handler()
	mux := http.NewServeMux()
	mux.Handle("/v1/diagnose", obs.Instrument(r.reg, "diagnose", inner))
	mux.Handle("/v1/diagnose-batch", obs.Instrument(r.reg, "diagnose_batch", inner))
	mux.Handle("/metrics", obs.ExpositionHandler(r.reg))
	mux.Handle("/", inner)

	hs := &http.Server{Handler: mux}
	r.mu.Lock()
	r.engine, r.srv, r.persist, r.httpSrv, r.up = e, srv, persist, hs, true
	r.mu.Unlock()
	go hs.Serve(ln)
	return nil
}

// url returns the replica's stable base URL.
func (r *replica) url() string { return "http://" + r.addr }

// Engine returns the live engine (nil while down).
func (r *replica) Engine() *serving.Engine {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine
}

// checkpoint compacts the replica's state journal — the SIGHUP path.
// No-op while down.
func (r *replica) checkpoint() error {
	r.mu.Lock()
	p := r.persist
	r.mu.Unlock()
	if p == nil {
		return nil
	}
	_, err := p.Checkpoint()
	return err
}

// kill abruptly closes the listener and every active connection — what
// the router sees when the process dies. The engine and journal stay
// allocated (a real crash frees them by exiting; in-process they are
// reclaimed by the restart). Idempotent.
func (r *replica) kill() {
	r.mu.Lock()
	s := r.httpSrv
	r.httpSrv = nil
	r.up = false
	r.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// restart tears down the killed stack (drain, close journal — the
// in-process stand-in for process exit) and boots a fresh one on the same
// address, replaying the journal. No-op when already up.
func (r *replica) restart() error {
	r.mu.Lock()
	if r.up {
		r.mu.Unlock()
		return nil
	}
	e, srv, persist := r.engine, r.srv, r.persist
	r.engine, r.srv, r.persist = nil, nil, nil
	r.mu.Unlock()

	if srv != nil {
		srv.Close() // drains the engine
	} else if e != nil {
		ctx, cancel := context.WithTimeout(context.Background(), serving.DrainTimeout)
		e.Close(ctx)
		cancel()
	}
	if persist != nil {
		persist.Close()
	}

	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", r.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("soak: replica %d rebind %s: %w", r.index, r.addr, err)
	}
	if err := r.boot(ln); err != nil {
		ln.Close()
		return err
	}
	return nil
}

// shutdown closes everything for good: listener, server (engine drain),
// journal. Idempotent.
func (r *replica) shutdown() error {
	r.kill()
	r.mu.Lock()
	e, srv, persist := r.engine, r.srv, r.persist
	r.engine, r.srv, r.persist = nil, nil, nil
	r.mu.Unlock()
	var firstErr error
	if srv != nil {
		firstErr = srv.Close()
	} else if e != nil {
		ctx, cancel := context.WithTimeout(context.Background(), serving.DrainTimeout)
		firstErr = e.Close(ctx)
		cancel()
	}
	if persist != nil {
		if err := persist.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
