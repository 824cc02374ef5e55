package serving

import (
	"context"
	"sync"
	"testing"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
)

var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureTest  *dataset.Dataset
)

// fixture trains one tiny model for the whole test package (same shape as
// the analysis package's fixture).
func fixture(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	fixtureOnce.Do(func() {
		w := netsim.NewWorld(netsim.Config{Seed: 1})
		d := dataset.Generate(dataset.GenConfig{
			World:          w,
			NominalSamples: 300,
			FaultSamples:   800,
			Seed:           21,
		})
		train, test := d.Split(0.8, netsim.HiddenLandmarks(), 23)
		cfg := core.DefaultConfig()
		cfg.Filters = 6
		cfg.Hidden = []int{24, 12}
		cfg.Epochs = 6
		cfg.Forest = forest.Config{Trees: 10, Tree: forest.TreeConfig{MaxDepth: 6}}
		known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
		fixtureModel = core.TrainGeneral(train, known, cfg).Model
		fixtureTest = test
	})
	return fixtureModel, fixtureTest
}

// sampleRequest returns a degraded test sample as an engine request.
func sampleRequest(t testing.TB) *Request {
	t.Helper()
	_, test := fixture(t)
	deg := test.Degraded()
	if deg.Len() == 0 {
		t.Fatal("no degraded samples")
	}
	s := &deg.Samples[0]
	return &Request{
		ServiceID: s.Service,
		Layout:    test.Layout,
		Features:  s.Features,
	}
}

// newEngine starts an engine with the fixture model promoted as version
// "boot" and registers a drain on test cleanup.
func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	m, _ := fixture(t)
	e := New(cfg)
	if err := e.Registry().AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("boot"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return e
}

// heldEngine starts an engine whose only worker is the test itself: the
// dispatcher runs, but batches land on an unbuffered channel the test
// reads, so the test holds the worker busy for as long as it likes and
// sees every batch exactly as the dispatcher formed it. Cleanup closes the
// engine and serves whatever batches are left.
func heldEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	m, _ := fixture(t)
	e := build(cfg)
	e.batches = make(chan []*item)
	if err := e.reg.AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.reg.Promote("boot"); err != nil {
		t.Fatal(err)
	}
	e.dispatcherWG.Add(1)
	go e.dispatch()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		defer cancel()
		closed := make(chan error, 1)
		go func() { closed <- e.Close(ctx) }()
		for batch := range e.batches {
			e.serveBatch(e.reg.current(), 0, batch)
		}
		if err := <-closed; err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return e
}

// hold parks a held engine's dispatcher: it queues a full BatchMax
// submission of its own and returns once the dispatcher has picked it up.
// A full batch flushes without looking at the queue again, so from here
// the dispatcher waits on the test to take that batch (the returned item)
// from e.batches, and everything queued meanwhile stays queued.
func hold(t *testing.T, e *Engine) *item {
	t.Helper()
	reqs := make([]*Request, e.cfg.BatchMax)
	for i := range reqs {
		reqs[i] = sampleRequest(t)
	}
	blocker := newItem(context.Background(), reqs)
	if err := e.enqueue(blocker, false); err != nil {
		t.Fatal(err)
	}
	waitQueued(t, e, 0)
	return blocker
}

// waitQueued waits until exactly n submissions sit in the queue.
func waitQueued(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(e.queue) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d submissions, want %d", len(e.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}
