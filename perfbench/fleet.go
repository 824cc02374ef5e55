package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/cluster"
	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/durable"
	"diagnet/internal/serving"
)

const replicaCount = 2

// storeFsync is the sample store's journal policy: FsyncBatch, the default
// continual.StoreConfig documents. (Its zero value is FsyncAlways, under
// which compaction fsyncs every rewritten record while holding the store
// lock, and learn's reads stall behind it for up to a second.)
const storeFsync = durable.FsyncBatch

// fleetOpts says how to assemble one in-process fleet: a cluster.Router
// in front of replicaCount analysis.Server replicas on loopback HTTP, all
// with the program's default configuration.
type fleetOpts struct {
	bundlePath string
	// stateDir, when set, gives replica 0 a continual.Controller with a
	// journal-backed sample store under it (no automatic triggers).
	stateDir string
	// rec, when set, records router, attempt and replica handler spans.
	rec *recorder
	// wrapReplica, when set, wraps each replica's handler (self-tests use
	// it to corrupt answers).
	wrapReplica func(i int, h http.Handler) http.Handler
}

type replicaNode struct {
	engine *serving.Engine
	srv    *analysis.Server
	store  *continual.SampleStore
	ctrl   *continual.Controller
	hs     *http.Server
	url    string
}

type fleet struct {
	replicas []*replicaNode
	router   *cluster.Router
	hs       *http.Server
	url      string
	serveWG  sync.WaitGroup
}

// bootFleet assembles a fleet and returns once the router reports every
// replica ready. The returned duration covers loading the bundle file,
// registry warm-up and readiness.
func bootFleet(o fleetOpts) (*fleet, time.Duration, error) {
	start := time.Now()
	f := &fleet{}
	fail := func(err error) (*fleet, time.Duration, error) {
		f.close()
		return nil, 0, err
	}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		n, err := f.bootReplica(i, o)
		if err != nil {
			return fail(fmt.Errorf("replica %d: %w", i, err))
		}
		urls = append(urls, n.url)
	}
	cfg := cluster.Config{}
	if o.rec != nil {
		cfg.Transport = &timingTransport{rec: o.rec, base: routerTransport()}
	}
	f.router = cluster.NewRouter(urls, cfg)
	var h http.Handler = f.router
	if o.rec != nil {
		h = o.rec.middleware(kindRouter, h)
	}
	var err error
	if f.hs, f.url, err = f.serve(h); err != nil {
		return fail(fmt.Errorf("router: %w", err))
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.router.Pool().HealthyCount() < replicaCount {
		if time.Now().After(deadline) {
			return fail(errors.New("router never saw every replica ready"))
		}
		time.Sleep(time.Millisecond)
	}
	return f, time.Since(start), nil
}

func (f *fleet) bootReplica(i int, o fleetOpts) (*replicaNode, error) {
	b, err := loadBundle(o.bundlePath)
	if err != nil {
		return nil, err
	}
	n := &replicaNode{engine: serving.New(serving.Config{})}
	n.srv = analysis.NewServerFromEngine(n.engine)
	f.replicas = append(f.replicas, n)
	reg := n.engine.Registry()
	if err := reg.Add("boot", b); err != nil {
		return nil, err
	}
	if err := reg.Promote("boot"); err != nil {
		return nil, err
	}
	if i == 0 && o.stateDir != "" {
		if n.store, err = continual.OpenStore(continual.StoreConfig{Dir: filepath.Join(o.stateDir, "samples"), Fsync: storeFsync}); err != nil {
			return nil, err
		}
		trainer, err := continual.NewTrainer(continual.TrainerConfig{})
		if err != nil {
			return nil, err
		}
		if n.ctrl, err = continual.NewController(continual.Config{Engine: n.engine, Store: n.store, Trainer: trainer}); err != nil {
			return nil, err
		}
		n.srv.AttachContinual(n.ctrl)
	}
	n.srv.SetReady(true)
	h := n.srv.Handler()
	if o.rec != nil {
		h = o.rec.middleware(kindHandler, h)
	}
	if o.wrapReplica != nil {
		h = o.wrapReplica(i, h)
	}
	n.hs, n.url, err = f.serve(h)
	return n, err
}

// routerTransport mirrors the router's own default outbound transport, so
// the traced run differs from the untraced one only by the timing layer.
func routerTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 1024
	t.MaxIdleConnsPerHost = 256
	return t
}

func (f *fleet) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// close tears the fleet down front to back, waits for every server
// goroutine to exit and returns the errors the components reported.
func (f *fleet) close() error {
	var errs []error
	if f.hs != nil {
		errs = append(errs, f.hs.Close())
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.replicas {
		if n.hs != nil {
			errs = append(errs, n.hs.Close())
		}
		errs = append(errs, n.srv.Close())
		if n.ctrl != nil {
			errs = append(errs, n.ctrl.Close())
		}
		if n.store != nil {
			errs = append(errs, n.store.Close())
		}
	}
	f.serveWG.Wait()
	return errors.Join(errs...)
}

// queueDepth sums the engines' admission queues.
func (f *fleet) queueDepth() int {
	d := 0
	for _, n := range f.replicas {
		d += n.engine.Stats().QueueDepth
	}
	return d
}

// shed sums the requests the engines dropped.
func (f *fleet) shed() int64 {
	var s int64
	for _, n := range f.replicas {
		st := n.engine.Stats()
		s += st.ShedFull + st.ShedExpired + st.ShedCanceled
	}
	return s
}

// promote registers b under version on every replica and makes it active.
func (f *fleet) promote(version string, b *core.Bundle) error {
	for i, n := range f.replicas {
		reg := n.engine.Registry()
		if err := reg.Add(version, b); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		if err := reg.Promote(version); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
	}
	return nil
}
