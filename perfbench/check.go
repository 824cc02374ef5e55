package main

import (
	"errors"
	"fmt"
	"math"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/probe"
)

// topK is the number of ranked causes the service returns by default and
// the key records.
const topK = 5

// keyEntry is the in-process reference answer for one pool request.
type keyEntry struct {
	diag    *core.Diagnosis
	family  string
	service int // -1 = general model
	top     []int
}

// answerKey holds, per model version, the bundle served under that name
// and the reference answers computed from it so far. Each answer is
// computed on first use, by core.Model.Diagnose with the model the
// replica picks for the request, so only requests that were sent cost a
// diagnosis.
type answerKey struct {
	pool    []poolReq
	bundles map[string]*core.Bundle
	entries map[string][]*keyEntry
}

func newAnswerKey(pool []poolReq) *answerKey {
	return &answerKey{pool: pool, bundles: map[string]*core.Bundle{}, entries: map[string][]*keyEntry{}}
}

// add registers the bundle a version serves.
func (k *answerKey) add(version string, b *core.Bundle) {
	k.bundles[version] = b
	k.entries[version] = make([]*keyEntry, len(k.pool))
}

// entry returns the reference answer for pool request idx under version.
func (k *answerKey) entry(version string, idx int) (*keyEntry, bool) {
	es, ok := k.entries[version]
	if !ok {
		return nil, false
	}
	if es[idx] == nil {
		p := &k.pool[idx]
		m := k.bundles[version].ModelFor(p.req.ServiceID)
		d := m.Diagnose(p.req.Features, p.layout)
		es[idx] = &keyEntry{diag: d, family: d.Family.String(), service: m.ServiceID, top: d.Ranked()[:min(topK, len(d.Final))]}
	}
	return es[idx], true
}

// check checks every answer of one request against the key of the model
// version that served it. oks[i] reports answer i; err is the request's
// first failure.
func (k *answerKey) check(o *outcome) (oks []bool, err error) {
	if o.err != nil {
		return nil, o.err
	}
	oks = make([]bool, len(o.answers))
	for i, a := range o.answers {
		var e error
		if want, ok := k.entry(a.version, o.req.idx[i]); !ok {
			e = fmt.Errorf("unknown model version %q", a.version)
		} else {
			e = checkAnswer(a, want)
		}
		oks[i] = e == nil
		if e != nil && err == nil {
			err = fmt.Errorf("pool request %d: %w", o.req.idx[i], e)
		}
	}
	return oks, err
}

// served is the part of one served diagnosis the checks read, decoded
// and vetted for shape while the run is still going.
type served struct {
	version string
	family  string
	service int
	causes  []analysis.Cause
	shape   error // finite values, valid family, version named, cause count
}

var validFamilies = func() map[string]bool {
	m := map[string]bool{}
	for f := probe.Family(0); f < probe.NumFamilies; f++ {
		m[f.String()] = true
	}
	return m
}()

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// summarize vets a response's shape and keeps what the key check needs.
func summarize(r *analysis.DiagnoseResponse, nFeatures int) served {
	if r == nil {
		return served{shape: errors.New("missing response")}
	}
	s := served{version: r.ModelVersion, family: r.Family, service: r.ModelService, causes: r.Causes}
	switch {
	case r.ModelVersion == "":
		s.shape = errors.New("no model version named")
	case !validFamilies[r.Family]:
		s.shape = fmt.Errorf("invalid family %q", r.Family)
	case len(r.Coarse) != int(probe.NumFamilies):
		s.shape = fmt.Errorf("coarse has %d classes", len(r.Coarse))
	case !finite(r.UnknownWeight):
		s.shape = errors.New("non-finite unknown weight")
	case len(r.Causes) != min(topK, nFeatures):
		s.shape = fmt.Errorf("%d causes, want %d", len(r.Causes), min(topK, nFeatures))
	}
	for _, p := range r.Coarse {
		if s.shape == nil && !finite(p) {
			s.shape = errors.New("non-finite coarse probability")
		}
	}
	for _, c := range r.Causes {
		if s.shape == nil && (!finite(c.Score) || c.Feature < 0 || c.Feature >= nFeatures) {
			s.shape = fmt.Errorf("bad cause %d (score %v)", c.Feature, c.Score)
		}
	}
	return s
}

// near compares scores with a relative tolerance, so a ranking that only
// swaps exactly tied causes, or a kernel that reorders a floating-point
// sum, is not counted as a wrong answer.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkAnswer compares one served diagnosis with its key entry.
func checkAnswer(s served, k *keyEntry) error {
	if s.shape != nil {
		return s.shape
	}
	if s.family != k.family {
		return fmt.Errorf("family %s, key %s", s.family, k.family)
	}
	if s.service != k.service {
		return fmt.Errorf("served by model %d, key %d", s.service, k.service)
	}
	final := k.diag.Final
	for i, c := range s.causes {
		want := k.top[i]
		if c.Feature != want && !near(final[c.Feature], final[want]) {
			return fmt.Errorf("rank %d cause %d, key %d", i, c.Feature, want)
		}
		if !near(c.Score, final[c.Feature]) {
			return fmt.Errorf("cause %d score %v, key %v", c.Feature, c.Score, final[c.Feature])
		}
	}
	return nil
}
