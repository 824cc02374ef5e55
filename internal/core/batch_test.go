package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"diagnet/internal/probe"
)

var cachedSpecialized *Model

// specializedModel is the general test model specialized to the first
// training sample's service.
func specializedModel(t *testing.T) *Model {
	t.Helper()
	if cachedSpecialized == nil {
		train, _ := trainTestData(t)
		cachedSpecialized = trainedModel(t).Specialize(train, train.Samples[0].Service).Model
	}
	return cachedSpecialized
}

// sameBits reports whether two slices hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diagnosisDiff names the first Diagnosis field in which a and b differ
// bit for bit, or returns "" when they are identical.
func diagnosisDiff(a, b *Diagnosis) string {
	switch {
	case fmt.Sprint(a.Layout.Landmarks) != fmt.Sprint(b.Layout.Landmarks):
		return "Layout"
	case !sameBits(a.Coarse, b.Coarse):
		return "Coarse"
	case a.Family != b.Family:
		return "Family"
	case !sameBits(a.Attention, b.Attention):
		return "Attention"
	case !sameBits(a.Tuned, b.Tuned):
		return "Tuned"
	case math.Float64bits(a.UnknownWeight) != math.Float64bits(b.UnknownWeight):
		return "UnknownWeight"
	case !sameBits(a.Final, b.Final):
		return "Final"
	}
	return ""
}

// randomLayout returns a random non-empty subset of full's landmarks in
// random order; with all set it is a permutation of the whole layout.
func randomLayout(rng *rand.Rand, full probe.Layout, all bool) probe.Layout {
	perm := rng.Perm(full.NumLandmarks())
	size := len(perm)
	if !all {
		size = 1 + rng.Intn(len(perm))
	}
	regions := make([]int, size)
	for i := range regions {
		regions[i] = full.Landmarks[perm[i]]
	}
	return probe.NewLayout(regions)
}

// TestDiagnoseBatchMatchesSerial is the batching property: every row of
// DiagnoseBatch equals Diagnose of that sample bit for bit, in every
// Diagnosis field, for the general and a specialized model, across batch
// sizes and random layouts — subsets and permutations of the full layout,
// which carries the landmarks hidden during training.
func TestDiagnoseBatchMatchesSerial(t *testing.T) {
	_, test := trainTestData(t)
	full := test.Layout
	rng := rand.New(rand.NewSource(42))
	for _, m := range []*Model{trainedModel(t), specializedModel(t)} {
		for _, b := range []int{1, 2, 7, 64} {
			for trial := 0; trial < 3; trial++ {
				layout := randomLayout(rng, full, trial == 0)
				features := make([][]float64, b)
				for i := range features {
					features[i] = full.Project(test.Samples[rng.Intn(test.Len())].Features, layout)
				}
				batch := m.DiagnoseBatch(context.Background(), features, layout)
				if len(batch) != b {
					t.Fatalf("service %d, B=%d: %d results", m.ServiceID, b, len(batch))
				}
				for i, f := range features {
					if diff := diagnosisDiff(batch[i], m.Diagnose(f, layout)); diff != "" {
						t.Fatalf("service %d, B=%d, layout %v, row %d: %s differs from Diagnose",
							m.ServiceID, b, layout.Landmarks, i, diff)
					}
				}
			}
		}
	}
}

// TestDiagnoseConcurrentSharedModel runs eight goroutines diagnosing on one
// shared Model (run it under -race) and requires the serial answers.
func TestDiagnoseConcurrentSharedModel(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	n := min(32, test.Len())
	features := make([][]float64, n)
	want := make([]*Diagnosis, n)
	for i := range features {
		features[i] = test.Samples[i].Features
		want[i] = m.Diagnose(features[i], test.Layout)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				lo := (g*5 + rep*3) % n
				hi := min(n, lo+1+g%4)
				got := m.DiagnoseBatch(context.Background(), features[lo:hi], test.Layout)
				for k, d := range got {
					if diff := diagnosisDiff(d, want[lo+k]); diff != "" {
						t.Errorf("goroutine %d, sample %d: %s differs from the serial answer", g, lo+k, diff)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDiagnoseBatchEmpty(t *testing.T) {
	m := trainedModel(t)
	if got := m.DiagnoseBatch(context.Background(), nil, probe.FullLayout()); len(got) != 0 {
		t.Fatal("empty batch")
	}
}

// TestDiagnoseBatchDoesNotMutateModel pins that inference is read-only:
// every parameter's value and accumulated gradient survive diagnosis
// untouched.
func TestDiagnoseBatchDoesNotMutateModel(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	params := m.Net.Params()
	snapshot := func() [][]float64 {
		var s [][]float64
		for _, p := range params {
			s = append(s, append([]float64(nil), p.Value.Data...), append([]float64(nil), p.Grad.Data...))
		}
		return s
	}
	before := snapshot()
	m.DiagnoseBatch(context.Background(), [][]float64{test.Samples[0].Features, test.Samples[1].Features}, test.Layout)
	m.Diagnose(test.Samples[2].Features, test.Layout)
	m.CoarsePredict(test.Samples[3].Features, test.Layout)
	after := snapshot()
	for i := range before {
		if !sameBits(before[i], after[i]) {
			field := "Value"
			if i%2 == 1 {
				field = "Grad"
			}
			t.Fatalf("diagnosis mutated %s.%s", params[i/2].Name, field)
		}
	}
}
