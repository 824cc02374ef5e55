package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"diagnet/internal/analysis"
)

// request is one HTTP request the generator sends: a single diagnose, a
// batch of diagnoses or a feedback post.
type request struct {
	path string
	body []byte
	idx  []int // pool indices of the diagnoses, in request order
}

// outcome is what became of one sent request.
type outcome struct {
	req             *request
	due, sent, done time.Time
	err             error // transport error, non-2xx status or undecodable body
	answers         []served
}

// latency is timed from when the request was due (open loop) or sent
// (closed loop, where due is zero).
func (o *outcome) latency() time.Duration {
	if o.due.IsZero() {
		return o.done.Sub(o.sent)
	}
	return o.done.Sub(o.due)
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

// sender posts requests to one base URL and decodes the answers.
type sender struct {
	client *http.Client
	url    string
	pool   []poolReq
	rec    *recorder // traced run: record a client span per request
}

func (s *sender) send(r *request, due time.Time) outcome {
	o := outcome{req: r, due: due}
	var cs span
	hr, err := http.NewRequest(http.MethodPost, s.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	if s.rec != nil {
		cs = span{id: s.rec.newID(), req: s.rec.newID(), kind: kindClient, batch: len(r.idx) > 1}
		setRef(hr.Header, spanRef{cs.req, cs.id})
		cs.start = s.rec.now()
	}
	o.sent = time.Now()
	body, status, err := s.roundTrip(hr)
	o.done = time.Now()
	if s.rec != nil {
		cs.end = s.rec.now()
		s.rec.add(cs)
	}
	switch {
	case err != nil:
		o.err = err
	case status/100 != 2:
		o.err = fmt.Errorf("http %d: %.200s", status, body)
	default:
		o.answers, o.err = s.decode(r, body)
	}
	return o
}

func (s *sender) roundTrip(hr *http.Request) ([]byte, int, error) {
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (s *sender) decode(r *request, body []byte) ([]served, error) {
	switch r.path {
	case "/v1/diagnose":
		var resp analysis.DiagnoseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		return []served{summarize(&resp, s.pool[r.idx[0]].layout.NumFeatures())}, nil
	case "/v1/diagnose-batch":
		var resp analysis.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if len(resp.Responses) != len(r.idx) {
			return nil, fmt.Errorf("batch of %d got %d responses", len(r.idx), len(resp.Responses))
		}
		out := make([]served, len(r.idx))
		for i, j := range r.idx {
			out[i] = summarize(resp.Responses[i], s.pool[j].layout.NumFeatures())
			if i < len(resp.Errors) && resp.Errors[i] != "" {
				out[i].shape = errors.New(resp.Errors[i])
			}
		}
		return out, nil
	default: // feedback
		var resp analysis.FeedbackResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if resp.Ingested != len(r.idx) || len(resp.Errors) > 0 {
			return nil, fmt.Errorf("ingested %d of %d samples: %v", resp.Ingested, len(r.idx), resp.Errors)
		}
		return nil, nil
	}
}

// openLoop sends reqs[i] at start+dues[i] over conns connections,
// whether or not earlier requests have been answered. A request waiting
// for a free connection keeps its due time, so a stall shows in the
// latency of every request queued behind it. lags records how late the
// generator itself handed each request over, in ms. after, when set, runs
// on the sending goroutine after each outcome.
type openLoop struct {
	s     *sender
	conns int
	reqs  []*request
	dues  []time.Duration
	after func(outcome)

	outs []outcome
	lags []float64
	jobs chan int
}

func newOpenLoop(s *sender, conns int, reqs []*request, dues []time.Duration) *openLoop {
	return &openLoop{s: s, conns: conns, reqs: reqs, dues: dues,
		outs: make([]outcome, len(reqs)), lags: make([]float64, len(reqs)),
		jobs: make(chan int, len(reqs))} // one slot per send: the scheduler never blocks
}

func (l *openLoop) run(start time.Time) {
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range l.jobs {
				l.outs[i] = l.s.send(l.reqs[i], start.Add(l.dues[i]))
				if l.after != nil {
					l.after(l.outs[i])
				}
			}
		}()
	}
	for i, d := range l.dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		l.lags[i] = ms(time.Since(due))
		l.jobs <- i
	}
	close(l.jobs)
	wg.Wait()
}

// backlog is how many due requests still wait for a connection.
func (l *openLoop) backlog() int { return len(l.jobs) }

// closedLoop sends reqs round-robin on one connection, each as soon as
// the previous one is answered, until the deadline passes.
func closedLoop(s *sender, reqs []*request, deadline time.Time) []outcome {
	var outs []outcome
	for i := 0; time.Now().Before(deadline); i++ {
		outs = append(outs, s.send(reqs[i%len(reqs)], time.Time{}))
	}
	return outs
}

// poissonDues returns n arrival offsets of a Poisson process conditioned
// on n arrivals in [0, window): sorted independent uniform times.
func poissonDues(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	return dues
}

// evenDues spaces n arrivals 1/rate apart.
func evenDues(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return dues
}

func singleRequests(pool []poolReq) []*request {
	reqs := make([]*request, len(pool))
	for i := range pool {
		reqs[i] = &request{path: "/v1/diagnose", body: pool[i].body, idx: []int{i}}
	}
	return reqs
}

// batchRequests builds n batches of size pool requests drawn at random.
func batchRequests(rng *rand.Rand, pool []poolReq, n, size int) ([]*request, error) {
	reqs := make([]*request, n)
	for b := range reqs {
		r := &request{path: "/v1/diagnose-batch", idx: make([]int, size)}
		var br analysis.BatchRequest
		for i := range r.idx {
			r.idx[i] = rng.Intn(len(pool))
			br.Requests = append(br.Requests, pool[r.idx[i]].req)
		}
		var err error
		if r.body, err = json.Marshal(&br); err != nil {
			return nil, err
		}
		reqs[b] = r
	}
	return reqs, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
