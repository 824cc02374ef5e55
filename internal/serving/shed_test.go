package serving

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestSubmitShedsOnFullQueue pins the non-blocking admission path: with the
// queue at capacity, Submit must return ErrQueueFull immediately and count
// the shed. The engine is built by hand without a dispatcher so the queue
// stays full deterministically instead of racing a drain.
func TestSubmitShedsOnFullQueue(t *testing.T) {
	m, _ := fixture(t)
	cfg := Config{QueueDepth: 2}.withDefaults()
	e := &Engine{
		cfg:     cfg,
		reg:     NewRegistry(),
		queue:   make(chan *item, cfg.QueueDepth),
		batches: make(chan []*item, 1),
	}
	if err := e.reg.AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.reg.Promote("boot"); err != nil {
		t.Fatal(err)
	}
	req := sampleRequest(t)

	// Fill the queue: with nobody draining, the first QueueDepth submissions
	// park waiting for a result, so run them in goroutines and release them
	// by cancellation once the test is done asserting.
	var wg sync.WaitGroup
	parked, release := context.WithCancel(context.Background())
	defer func() {
		release()
		wg.Wait()
	}()
	for i := 0; i < cfg.QueueDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Submit(parked, req) // returns once release() fires
		}()
	}
	for len(e.queue) < cfg.QueueDepth {
		time.Sleep(time.Millisecond)
	}

	if _, err := e.Submit(context.Background(), req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if s := e.Stats(); s.ShedFull != 1 {
		t.Fatalf("ShedFull = %d, want 1", s.ShedFull)
	}
	// SubmitWait blocks instead of shedding; a bounded context proves it
	// waits (and is still bounded) rather than failing fast.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.SubmitWait(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitWait err = %v, want deadline exceeded", err)
	}
	if s := e.Stats(); s.ShedFull != 1 {
		t.Fatalf("SubmitWait must not count as a shed; ShedFull = %d", s.ShedFull)
	}
}

// TestExpiredRequestNeverReachesAWorker pins deadline-aware shedding: an
// item whose deadline ran out while queued is dropped before any model
// work, counted as an expired shed, never as served.
func TestExpiredRequestNeverReachesAWorker(t *testing.T) {
	e := newEngine(t, Config{BatchMax: 4, BatchWait: time.Millisecond})
	req := sampleRequest(t)
	before := e.Stats()

	// White-box: enqueue an already-dead item directly, exactly what the
	// queue holds after a caller's deadline fires while waiting.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	it := &item{ctx: ctx, req: req, done: make(chan outcome, 1)}
	e.queue <- it
	out := <-it.done
	if !errors.Is(out.err, context.DeadlineExceeded) {
		t.Fatalf("outcome err = %v, want context.DeadlineExceeded", out.err)
	}
	if out.res != nil {
		t.Fatal("expired request produced a diagnosis")
	}
	after := e.Stats()
	if after.ShedExpired-before.ShedExpired != 1 {
		t.Fatalf("ShedExpired delta %d, want 1", after.ShedExpired-before.ShedExpired)
	}
	if after.ShedCanceled != before.ShedCanceled {
		t.Fatalf("an expired deadline must not count as canceled (delta %d)",
			after.ShedCanceled-before.ShedCanceled)
	}
	if after.Served != before.Served {
		t.Fatalf("Served moved %d -> %d for an expired request", before.Served, after.Served)
	}
	// An expired context is also rejected at the door.
	if _, err := e.Submit(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit with dead ctx = %v", err)
	}
}

// TestCanceledHedgeLoserFreesBatchSlot pins the hedging contract on the
// engine (DESIGN.md §14): a request canceled while queued — the losing
// duplicate of a tail-latency hedge — is settled by the dispatcher during
// batch formation, counted under ShedCanceled (not ShedExpired, not
// Served), and its BatchMax slot goes to a live request instead.
func TestCanceledHedgeLoserFreesBatchSlot(t *testing.T) {
	// BatchWait is deliberately huge: with BatchMax=2, the only way the
	// batch flushes promptly is by filling both slots with live items. If
	// the canceled loser consumed a slot, the second live request would sit
	// out a 30s wait in the next batch and the test would time out below.
	e := newEngine(t, Config{BatchMax: 2, BatchWait: 30 * time.Second, Workers: 1})
	req := sampleRequest(t)
	before := e.Stats()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	loser := &item{ctx: canceled, req: req, done: make(chan outcome, 1)}
	liveA := &item{ctx: context.Background(), req: req, done: make(chan outcome, 1)}
	liveB := &item{ctx: context.Background(), req: req, done: make(chan outcome, 1)}
	// Queue order: the dead hedge loser first, so it would both seed the
	// batch and take a slot if the dispatcher did not settle it.
	e.queue <- loser
	e.queue <- liveA
	e.queue <- liveB

	out := <-loser.done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("loser outcome = %v, want context.Canceled", out.err)
	}
	deadline := time.After(5 * time.Second)
	for _, it := range []*item{liveA, liveB} {
		select {
		case out := <-it.done:
			if out.err != nil || out.res == nil {
				t.Fatalf("live request failed: %v", out.err)
			}
		case <-deadline:
			t.Fatal("live request starved: the canceled loser consumed its batch slot")
		}
	}
	after := e.Stats()
	if d := after.ShedCanceled - before.ShedCanceled; d != 1 {
		t.Fatalf("ShedCanceled delta %d, want 1", d)
	}
	if after.ShedExpired != before.ShedExpired {
		t.Fatalf("canceled loser leaked into ShedExpired (delta %d)",
			after.ShedExpired-before.ShedExpired)
	}
	if d := after.Served - before.Served; d != 2 {
		t.Fatalf("Served delta %d, want exactly the 2 live requests", d)
	}
}

// TestCloseDrainsInFlight pins graceful drain: submissions racing Close
// either get a real diagnosis or ErrClosed — never a hang, never a lost
// result — and Close itself returns once the queue is drained.
func TestCloseDrainsInFlight(t *testing.T) {
	m, _ := fixture(t)
	e := New(Config{BatchMax: 4, BatchWait: 5 * time.Millisecond, Workers: 2})
	if err := e.Registry().AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("boot"); err != nil {
		t.Fatal(err)
	}
	req := sampleRequest(t)

	const n = 16
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		served    int
		rejected  int
		unexplain []error
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			res, err := e.SubmitWait(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && res != nil && res.Diagnosis != nil:
				served++
			case errors.Is(err, ErrClosed):
				rejected++
			default:
				unexplain = append(unexplain, err)
			}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(unexplain) > 0 {
		t.Fatalf("unexpected outcomes during drain: %v", unexplain)
	}
	if served+rejected != n {
		t.Fatalf("accounted for %d of %d submissions", served+rejected, n)
	}
	if got := e.Stats().Served; got != int64(served) {
		t.Fatalf("stats served %d, callers saw %d", got, served)
	}
}
