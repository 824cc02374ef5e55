package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"diagnet/internal/mat"
)

// The paper's root-cause extensibility claim (§III-C) rests on two
// structural invariants of LandPool, pinned here as randomized properties
// across kernels, layouts and op sets:
//
//  1. Landmark permutation invariance — every Ω is commutative across the
//     landmark axis, so reordering a sample's landmark blocks must not
//     change the layer output.
//  2. Subset consistency — the output on a landmark subset equals pooling
//     the per-landmark filter activations of exactly that subset (the
//     convolution is per-landmark independent), and the order-statistic
//     ops obey the induced bounds: min grows, max shrinks, avg and every
//     percentile stay inside the full set's [min, max] envelope.
//
// Together these are what lets landmarks appear or disappear between
// training and inference without architectural change.

const propTol = 1e-9

// randomOps draws a nonempty op set that always includes the four ops the
// subset-bound checks name, plus a few random percentiles.
func randomOps(rng *rand.Rand) []PoolOp {
	ops := []PoolOp{MinPool{}, MaxPool{}, AvgPool{}, VarPool{}}
	for n := rng.Intn(4); n > 0; n-- {
		ops = append(ops, PercentilePool{P: float64(rng.Intn(99) + 1)})
	}
	return ops
}

// randomLayer draws a LandPool with Glorot-initialized kernel plus a
// random non-zero bias (a zero bias would mask bias-handling bugs).
func randomLayer(rng *rand.Rand, k, f, local int, ops []PoolOp) *LandPool {
	lp := NewLandPool(k, f, local, ops, rng)
	for i := range lp.Bias.Value.Data {
		lp.Bias.Value.Data[i] = rng.NormFloat64()
	}
	return lp
}

// randomInput draws an n×(ell·k+local) input matrix.
func randomInput(rng *rand.Rand, n, ell, k, local int) *mat.Matrix {
	x := mat.New(n, ell*k+local)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 3
	}
	return x
}

// activations computes the per-landmark filter activations of one row the
// straightforward way (kernel·x_λ + bias), independently of the layer's
// fused loop: act[λ][fi].
func activations(lp *LandPool, row []float64, ell int) [][]float64 {
	act := make([][]float64, ell)
	for l := 0; l < ell; l++ {
		xl := row[l*lp.K : (l+1)*lp.K]
		act[l] = make([]float64, lp.F)
		for fi := 0; fi < lp.F; fi++ {
			act[l][fi] = mat.Dot(lp.Kernel.Value.Row(fi), xl) + lp.Bias.Value.Data[fi]
		}
	}
	return act
}

// TestLandPoolPermutationInvariance: shuffling the landmark blocks of every
// row (each row with its own permutation) leaves the output unchanged.
func TestLandPoolPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(4) + 1
		f := rng.Intn(5) + 1
		local := rng.Intn(4)
		ell := rng.Intn(7) + 2
		n := rng.Intn(3) + 1
		lp := randomLayer(rng, k, f, local, randomOps(rng))
		x := randomInput(rng, n, ell, k, local)

		perm := mat.New(x.Rows, x.Cols)
		for s := 0; s < n; s++ {
			row, prow := x.Row(s), perm.Row(s)
			p := rng.Perm(ell)
			for l, src := range p {
				copy(prow[l*k:(l+1)*k], row[src*k:(src+1)*k])
			}
			copy(prow[ell*k:], row[ell*k:]) // locals keep their position
		}

		base, _ := lp.Forward(x, false)
		permuted, _ := lp.Forward(perm, false)
		for i := range base.Data {
			if d := math.Abs(base.Data[i] - permuted.Data[i]); d > propTol {
				t.Fatalf("trial %d (k=%d f=%d local=%d ell=%d): output[%d] moved %g under landmark permutation",
					trial, k, f, local, ell, i, d)
			}
		}
	}
}

// TestLandPoolSubsetConsistency: the layer's output on a subset of
// landmarks equals pooling the subset's independently computed
// activations, and the order-statistic outputs respect the full set's
// envelope.
func TestLandPoolSubsetConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(4) + 1
		f := rng.Intn(5) + 1
		local := rng.Intn(4)
		ell := rng.Intn(6) + 3
		ops := randomOps(rng)
		lp := randomLayer(rng, k, f, local, ops)
		x := randomInput(rng, 1, ell, k, local)
		row := x.Row(0)

		// Random proper subset, at least one landmark, order preserved.
		subset := rng.Perm(ell)[:rng.Intn(ell-1)+1]
		insertionArgsortInts(subset)
		sub := mat.New(1, len(subset)*k+local)
		srow := sub.Row(0)
		for i, l := range subset {
			copy(srow[i*k:(i+1)*k], row[l*k:(l+1)*k])
		}
		copy(srow[len(subset)*k:], row[ell*k:])

		full, _ := lp.Forward(x, false)
		frow := full.Row(0)
		subOut, _ := lp.Forward(sub, false)
		orow := subOut.Row(0)

		if got, want := len(orow), len(ops)*f+local; got != want {
			t.Fatalf("trial %d: subset output width %d, want %d (width must not depend on ell)", trial, got, want)
		}

		// Reference: pool the subset's activations directly.
		act := activations(lp, row, ell)
		vals := make([]float64, len(subset))
		for fi := 0; fi < f; fi++ {
			for i, l := range subset {
				vals[i] = act[l][fi]
			}
			for o, op := range ops {
				want := op.Forward(vals)
				got := orow[o*f+fi]
				if math.Abs(got-want) > propTol {
					t.Fatalf("trial %d: op %s filter %d: layer says %g, direct pooling of subset activations says %g",
						trial, op.Name(), fi, got, want)
				}
			}
		}

		// Envelope bounds against the full landmark set.
		for o, op := range ops {
			for fi := 0; fi < f; fi++ {
				fullMin := frow[opIndex(ops, "min")*f+fi]
				fullMax := frow[opIndex(ops, "max")*f+fi]
				v := orow[o*f+fi]
				switch op.Name() {
				case "min":
					if v < fullMin-propTol {
						t.Fatalf("trial %d: subset min %g below full min %g", trial, v, fullMin)
					}
				case "max":
					if v > fullMax+propTol {
						t.Fatalf("trial %d: subset max %g above full max %g", trial, v, fullMax)
					}
				case "avg":
					if v < fullMin-propTol || v > fullMax+propTol {
						t.Fatalf("trial %d: subset avg %g outside full envelope [%g, %g]", trial, v, fullMin, fullMax)
					}
				default:
					if _, isPct := op.(PercentilePool); isPct {
						if v < fullMin-propTol || v > fullMax+propTol {
							t.Fatalf("trial %d: subset %s %g outside full envelope [%g, %g]",
								trial, op.Name(), v, fullMin, fullMax)
						}
					}
				}
			}
		}

		// Locals pass through untouched regardless of the subset.
		for i := 0; i < local; i++ {
			if got, want := orow[len(ops)*f+i], row[ell*k+i]; got != want {
				t.Fatalf("trial %d: local %d = %g, want passthrough %g", trial, i, got, want)
			}
		}
	}
}

// TestLandPoolPercentileLadderMonotone: on any fixed input, percentiles
// must be monotone in P — an ordering property the interpolation could
// silently break.
func TestLandPoolPercentileLadderMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 40; trial++ {
		ell := rng.Intn(8) + 1
		vals := make([]float64, ell)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 5.0; p <= 95; p += 5 {
			v := PercentilePool{P: p}.Forward(vals)
			if v < prev-propTol {
				t.Fatalf("trial %d: p%.0f = %g < p%.0f = %g (not monotone)", trial, p, v, p-5, prev)
			}
			prev = v
		}
		lo := MinPool{}.Forward(vals)
		hi := MaxPool{}.Forward(vals)
		if p0 := (PercentilePool{P: 0}).Forward(vals); math.Abs(p0-lo) > propTol {
			t.Fatalf("trial %d: p0 %g != min %g", trial, p0, lo)
		}
		if p100 := (PercentilePool{P: 100}).Forward(vals); math.Abs(p100-hi) > propTol {
			t.Fatalf("trial %d: p100 %g != max %g", trial, p100, hi)
		}
	}
}

// opIndex finds the position of a named op in the set (the test always
// includes min/max/avg).
func opIndex(ops []PoolOp, name string) int {
	for i, op := range ops {
		if op.Name() == name {
			return i
		}
	}
	panic(fmt.Sprintf("op %s not in set", name))
}

// insertionArgsortInts sorts a small int slice ascending in place.
func insertionArgsortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
