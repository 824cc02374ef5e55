package nn

import (
	"math/rand"
	"testing"

	"diagnet/internal/mat"
)

// tableINet builds the paper's exact architecture (Table I).
func tableINet(rng *rand.Rand) (*Network, *LandPool) {
	lp := NewLandPool(5, 24, 5, DefaultPoolOps(), rng)
	net := NewNetwork(
		lp,
		NewDense(lp.OutWidth(), 512, rng), NewReLU(),
		NewDense(512, 128, rng), NewReLU(),
		NewDense(128, 7, rng),
	)
	return net, lp
}

func benchBatch(rng *rand.Rand, n, ell int) (*mat.Matrix, []int) {
	x := mat.New(n, ell*5+5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(7)
	}
	return x, labels
}

func BenchmarkLandPoolForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lp := NewLandPool(5, 24, 5, DefaultPoolOps(), rng)
	x, _ := benchBatch(rng, 64, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Forward(x, false)
	}
}

func BenchmarkLandPoolBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	lp := NewLandPool(5, 24, 5, DefaultPoolOps(), rng)
	x, _ := benchBatch(rng, 64, 10)
	out, cache := lp.Forward(x, false)
	dout := out.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Backward(cache, dout, false)
	}
}

func BenchmarkTableIForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net, _ := tableINet(rng)
	x, _ := benchBatch(rng, 64, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkTableITrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net, _ := tableINet(rng)
	x, labels := benchBatch(rng, 64, 7)
	tr := NewTrainer(net)
	var ce SoftmaxCrossEntropy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		logits, caches := net.forward(x, true)
		_, dlogits := ce.Loss(logits, labels)
		net.backward(caches, dlogits, true)
		tr.Opt.Step(net.Params())
	}
}

func BenchmarkInputGradient(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	net, _ := tableINet(rng)
	x := make([]float64, 10*5+5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.InputGradient(x, -1)
	}
}
