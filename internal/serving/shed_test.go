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
// the shed. The engine is built without a dispatcher so the queue stays
// full deterministically instead of racing a drain.
func TestSubmitShedsOnFullQueue(t *testing.T) {
	m, _ := fixture(t)
	e := build(Config{QueueDepth: 2})
	cfg := e.cfg
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

// TestSubmitBatchBlocksOnFullQueue: QueueDepth bounds samples, and a
// submission larger than the space left waits for room instead of
// shedding. The engine has no dispatcher, so the test frees the room.
func TestSubmitBatchBlocksOnFullQueue(t *testing.T) {
	m, _ := fixture(t)
	e := build(Config{BatchMax: 4, QueueDepth: 4})
	if err := e.reg.AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.reg.Promote("boot"); err != nil {
		t.Fatal(err)
	}
	req := sampleRequest(t)
	for i := 0; i < 2; i++ {
		if err := e.enqueue(newItem(context.Background(), []*Request{req}), false); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []error, 1)
	go func() {
		_, errs := e.SubmitBatch(ctx, []*Request{req, req, req, req})
		done <- errs
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case errs := <-done:
		t.Fatalf("4 samples against 2 free slots returned %v instead of waiting", errs)
	default:
	}
	if s := e.Stats(); s.ShedFull != 0 || s.QueueDepth != 2 {
		t.Fatalf("stats %+v: want no shed and 2 queued samples", s)
	}

	// Take the two singles off the queue, as the dispatcher would: the
	// waiting submission is admitted whole.
	for i := 0; i < 2; i++ {
		e.pickup(<-e.queue)
	}
	waitQueued(t, e, 1)
	if it := <-e.queue; len(it.reqs) != 4 {
		t.Fatalf("admitted a submission of %d samples, want 4", len(it.reqs))
	}
	cancel()
	for i, err := range <-done {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sample %d: %v, want context.Canceled", i, err)
		}
	}
	if s := e.Stats(); s.ShedFull != 0 {
		t.Fatalf("ShedFull = %d, want 0", s.ShedFull)
	}
}

// TestExpiredRequestNeverReachesAWorker pins deadline-aware shedding: an
// item whose deadline ran out while queued is dropped before any model
// work, counted as an expired shed, never as served.
func TestExpiredRequestNeverReachesAWorker(t *testing.T) {
	e := newEngine(t, Config{BatchMax: 4})
	req := sampleRequest(t)
	before := e.Stats()

	// White-box: enqueue an already-dead item directly, exactly what the
	// queue holds after a caller's deadline fires while waiting.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	it := newItem(ctx, []*Request{req})
	if err := e.enqueue(it, false); err != nil {
		t.Fatal(err)
	}
	<-it.done
	if !errors.Is(it.errs[0], context.DeadlineExceeded) {
		t.Fatalf("outcome err = %v, want context.DeadlineExceeded", it.errs[0])
	}
	if it.res[0] != nil {
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
	// The worker is held busy while the queue fills to [loser, A, B]. With
	// BatchMax=2 the next batch must be exactly {A, B}: if the canceled
	// loser seeded it or took a slot, B would be left for a later batch.
	e := heldEngine(t, Config{BatchMax: 2})
	req := sampleRequest(t)
	blocker := hold(t, e)
	before := e.Stats()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	loser := newItem(canceled, []*Request{req})
	liveA := newItem(context.Background(), []*Request{req})
	liveB := newItem(context.Background(), []*Request{req})
	// Queue order: the dead hedge loser first, so it would both seed the
	// batch and take a slot if the dispatcher did not settle it.
	for _, it := range []*item{loser, liveA, liveB} {
		if err := e.enqueue(it, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-e.batches; len(got) != 1 || got[0] != blocker {
		t.Fatalf("first batch %v, want the blocker alone", got)
	}
	batch := <-e.batches
	if len(batch) != 2 || batch[0] != liveA || batch[1] != liveB {
		t.Fatalf("batch after the loser holds %d items, want exactly [A B]: the canceled loser consumed a batch slot", len(batch))
	}
	<-loser.done
	if !errors.Is(loser.errs[0], context.Canceled) {
		t.Fatalf("loser outcome = %v, want context.Canceled", loser.errs[0])
	}
	e.serveBatch(e.reg.current(), 0, batch)
	for _, it := range []*item{liveA, liveB} {
		<-it.done
		if it.errs[0] != nil || it.res[0] == nil {
			t.Fatalf("live request failed: %v", it.errs[0])
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
	e := New(Config{BatchMax: 4, Workers: 2})
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
