package serving

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"diagnet/internal/probe"
)

// TestEngineMatchesDirect is the correctness anchor for batching: a
// diagnosis served through the queue/batch/worker pipeline must agree with
// a direct Model.Diagnose call on the same sample.
func TestEngineMatchesDirect(t *testing.T) {
	m, _ := fixture(t)
	e := newEngine(t, Config{})
	req := sampleRequest(t)

	want := m.Diagnose(req.Features, req.Layout)
	got, err := e.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != "boot" || got.ModelService != -1 {
		t.Fatalf("provenance %q/%d, want boot/-1", got.Version, got.ModelService)
	}
	if got.Diagnosis.Family != want.Family {
		t.Fatalf("family %v vs %v", got.Diagnosis.Family, want.Family)
	}
	for j := range want.Final {
		if d := math.Abs(got.Diagnosis.Final[j] - want.Final[j]); d > 1e-9 {
			t.Fatalf("final[%d] diverges by %g", j, d)
		}
	}
}

// TestEngineCoalescesConcurrentSubmissions drives many concurrent
// submissions through a small engine and checks every caller gets its own
// correct answer back — i.e. batching never crosses wires between requests.
func TestEngineCoalescesConcurrentSubmissions(t *testing.T) {
	m, test := fixture(t)
	e := newEngine(t, Config{BatchMax: 8, Workers: 2})

	deg := test.Degraded()
	n := deg.Len()
	if n > 24 {
		n = 24
	}
	want := make([]int, n)
	for i := 0; i < n; i++ {
		want[i] = m.Diagnose(deg.Samples[i].Features, test.Layout).Ranked()[0]
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := e.SubmitWait(context.Background(), &Request{
					ServiceID: deg.Samples[i].Service,
					Layout:    test.Layout,
					Features:  deg.Samples[i].Features,
				})
				if err != nil {
					errs <- err
					return
				}
				if got := res.Diagnosis.Ranked()[0]; got != want[i] {
					errs <- errMismatch{i, want[i], got}
				}
			}(i)
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Served < int64(4*n) {
		t.Fatalf("served %d, want >= %d", s.Served, 4*n)
	}
}

type errMismatch struct{ i, want, got int }

func (e errMismatch) Error() string {
	return fmt.Sprintf("request %d: top cause %d, want %d", e.i, e.got, e.want)
}

// TestEngineNoModel: submissions before any promotion fail fast with
// ErrNoModel instead of queueing forever.
func TestEngineNoModel(t *testing.T) {
	e := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		defer cancel()
		e.Close(ctx)
	})
	if _, err := e.Submit(context.Background(), sampleRequest(t)); err != ErrNoModel {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
}

// TestEngineClosedRejectsSubmissions: after Close, submissions fail with
// ErrClosed and Close stays idempotent.
func TestEngineClosedRejectsSubmissions(t *testing.T) {
	m, _ := fixture(t)
	e := New(Config{})
	if err := e.Registry().AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("boot"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), sampleRequest(t)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// mixedRequests returns n distinct degraded samples spread over three
// layouts (the full one and two landmark subsets) and three services.
func mixedRequests(t *testing.T, n int) []*Request {
	t.Helper()
	_, test := fixture(t)
	full := test.Layout
	layouts := []probe.Layout{
		full,
		probe.NewLayout(full.Landmarks[:7]),
		probe.NewLayout(full.Landmarks[len(full.Landmarks)-6:]),
	}
	deg := test.Degraded()
	if deg.Len() < n {
		t.Fatalf("%d degraded samples, want %d", deg.Len(), n)
	}
	reqs := make([]*Request, n)
	for i := range reqs {
		l := layouts[i%len(layouts)]
		reqs[i] = &Request{
			ServiceID: i % 3,
			Layout:    l,
			Features:  full.Project(deg.Samples[i].Features, l),
		}
	}
	return reqs
}

// specialize registers the fixture model as service 1's specialized model,
// so a mixed request set is served by two (model, service) pairs.
func specialize(t *testing.T, e *Engine) {
	t.Helper()
	m, _ := fixture(t)
	if err := e.Registry().SetSpecialized(1, m); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchWholeSubmissions pins the group-submission contract:
// SubmitBatch of 3·BatchMax+1 samples across mixed layouts and services
// answers every sample exactly as Submit does, in input order; and with
// the worker held busy, the dispatcher never splits a submission, starts
// the next batch with a submission that would overflow the current one,
// and never exceeds BatchMax.
func TestSubmitBatchWholeSubmissions(t *testing.T) {
	const batchMax = 4
	e := heldEngine(t, Config{BatchMax: batchMax})
	ref := newEngine(t, Config{})
	specialize(t, e)
	specialize(t, ref)
	reqs := mixedRequests(t, 3*batchMax+1)

	blocker := hold(t, e)
	lone1 := newItem(context.Background(), reqs[:1])
	if err := e.enqueue(lone1, false); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res  []*Result
		errs []error
	}
	got := make(chan outcome, 1)
	go func() {
		res, errs := e.SubmitBatch(context.Background(), reqs)
		got <- outcome{res, errs}
	}()
	waitQueued(t, e, 1+4) // lone1, then submissions of 4, 4, 4 and 1
	lone2 := newItem(context.Background(), reqs[:1])
	if err := e.enqueue(lone2, false); err != nil {
		t.Fatal(err)
	}

	// Free the worker and record each batch as submission sizes.
	if b := <-e.batches; len(b) != 1 || b[0] != blocker {
		t.Fatal("first batch is not the blocker")
	}
	var shapes [][]int
	for samples := 0; samples < len(reqs)+2; {
		batch := <-e.batches
		var shape []int
		n := 0
		for _, it := range batch {
			shape = append(shape, len(it.reqs))
			n += len(it.reqs)
		}
		if n > batchMax {
			t.Fatalf("batch of %d samples exceeds BatchMax %d", n, batchMax)
		}
		shapes = append(shapes, shape)
		samples += n
		e.serveBatch(e.reg.current(), 0, batch)
	}
	want := [][]int{{1}, {4}, {4}, {4}, {1, 1}}
	if !reflect.DeepEqual(shapes, want) {
		t.Fatalf("batches as submission sizes %v, want %v", shapes, want)
	}

	out := <-got
	for i, r := range reqs {
		if out.errs[i] != nil {
			t.Fatalf("sample %d: %v", i, out.errs[i])
		}
		single, err := ref.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.res[i], single) {
			t.Fatalf("sample %d (service %d, %d landmarks): SubmitBatch result differs from Submit",
				i, r.ServiceID, len(r.Layout.Landmarks))
		}
	}
}

// TestSubmitBatchCanceledPartway: canceling a SubmitBatch after its first
// submission was served returns that submission's results and a ctx error
// for every other sample; nothing waits on, or leaks from, the abandoned
// submissions (TestMain runs leakcheck).
func TestSubmitBatchCanceledPartway(t *testing.T) {
	const batchMax = 4
	e := heldEngine(t, Config{BatchMax: batchMax, QueueDepth: 2 * batchMax})
	reqs := mixedRequests(t, 4*batchMax)
	blocker := hold(t, e)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		res  []*Result
		errs []error
	}
	got := make(chan outcome, 1)
	go func() {
		res, errs := e.SubmitBatch(ctx, reqs)
		got <- outcome{res, errs}
	}()
	waitQueued(t, e, 2) // the queue holds two submissions; the rest wait for space
	if b := <-e.batches; b[0] != blocker {
		t.Fatal("first batch is not the blocker")
	}
	e.serveBatch(e.reg.current(), 0, <-e.batches)
	cancel()

	out := <-got
	for i := range reqs {
		switch {
		case i < batchMax && (out.errs[i] != nil || out.res[i] == nil):
			t.Fatalf("sample %d of the served submission: %v", i, out.errs[i])
		case i >= batchMax && (!errors.Is(out.errs[i], context.Canceled) || out.res[i] != nil):
			t.Fatalf("sample %d after cancel: err %v, want context.Canceled", i, out.errs[i])
		}
	}
}

// TestSubmitBatchRacingClose: group submissions racing Close get a result
// or ErrClosed for every sample — never a hang, never a lost result.
func TestSubmitBatchRacingClose(t *testing.T) {
	m, _ := fixture(t)
	e := New(Config{BatchMax: 4, QueueDepth: 8, Workers: 2})
	if err := e.Registry().AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("boot"); err != nil {
		t.Fatal(err)
	}
	reqs := mixedRequests(t, 10)

	const n = 8
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
			res, errs := e.SubmitBatch(context.Background(), reqs)
			mu.Lock()
			defer mu.Unlock()
			for k := range reqs {
				switch {
				case errs[k] == nil && res[k] != nil && res[k].Diagnosis != nil:
					served++
				case errors.Is(errs[k], ErrClosed):
					rejected++
				default:
					unexplain = append(unexplain, errs[k])
				}
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
	if served+rejected != n*len(reqs) {
		t.Fatalf("accounted for %d of %d samples", served+rejected, n*len(reqs))
	}
	if got := e.Stats().Served; got != int64(served) {
		t.Fatalf("stats served %d, callers saw %d", got, served)
	}
}
