package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"diagnet/internal/mat"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := mat.New(10, 7)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64() * 10
	}
	p := Softmax(logits)
	for i := 0; i < p.Rows; i++ {
		var s float64
		for _, v := range p.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	logits := mat.FromRows([][]float64{{1000, 1001, 999}})
	p := Softmax(logits)
	for _, v := range p.Row(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", p.Row(0))
		}
	}
	if Argmax(p.Row(0)) != 1 {
		t.Fatal("wrong argmax under large logits")
	}
}

func TestLossMatchesManual(t *testing.T) {
	logits := mat.FromRows([][]float64{{0, 0, 0}})
	var ce SoftmaxCrossEntropy
	loss, grad := ce.Loss(logits, []int{2})
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Fatalf("loss = %v, want ln 3", loss)
	}
	// grad = softmax - onehot = (1/3, 1/3, 1/3-1)
	want := []float64{1. / 3, 1. / 3, 1./3 - 1}
	for j, v := range grad.Row(0) {
		if math.Abs(v-want[j]) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", j, v, want[j])
		}
	}
}

func TestLossLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	var ce SoftmaxCrossEntropy
	ce.Loss(mat.New(1, 3), []int{3})
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := mat.FromRows([][]float64{{-1, 0, 2}})
	y, cache := r.Forward(x, false)
	if y.At(0, 0) != 0 || y.At(0, 1) != 0 || y.At(0, 2) != 2 {
		t.Fatalf("ReLU forward = %v", y.Data)
	}
	dx := r.Backward(cache, mat.FromRows([][]float64{{5, 5, 5}}), false)
	if dx.At(0, 0) != 0 || dx.At(0, 1) != 0 || dx.At(0, 2) != 5 {
		t.Fatalf("ReLU backward = %v", dx.Data)
	}
	// Input must not be mutated.
	if x.At(0, 0) != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

// A small MLP must be able to learn a nonlinear decision boundary (XOR).
func TestTrainerLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := mat.New(400, 2)
	labels := make([]int, 400)
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x.Set(i, 0, float64(a)+rng.NormFloat64()*0.05)
		x.Set(i, 1, float64(b)+rng.NormFloat64()*0.05)
		labels[i] = a ^ b
	}
	net := NewNetwork(NewDense(2, 16, rng), NewReLU(), NewDense(16, 2, rng))
	tr := NewTrainer(net)
	tr.Opt = &SGD{LR: 0.2, Momentum: 0.9, Nesterov: true, ClipNorm: 5}
	hist := tr.Fit(x, labels, nil, nil, TrainConfig{Epochs: 60, BatchSize: 32, Seed: 1})
	if acc := tr.Accuracy(x, labels); acc < 0.98 {
		t.Fatalf("XOR accuracy %.3f after %d epochs (final loss %.4f)", acc, hist.Epochs(), hist.TrainLoss[len(hist.TrainLoss)-1])
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, labels := randBatch(rng, 300, 5, 3)
	// Make the labels learnable: class = argmax of first 3 features.
	for i := 0; i < x.Rows; i++ {
		labels[i] = Argmax(x.Row(i)[:3])
	}
	net := NewNetwork(NewDense(5, 12, rng), NewReLU(), NewDense(12, 3, rng))
	tr := NewTrainer(net)
	hist := tr.Fit(x, labels, nil, nil, TrainConfig{Epochs: 15, BatchSize: 32, Seed: 2})
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestEarlyStoppingRestoresBestWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, labels := randBatch(rng, 200, 4, 2)
	for i := 0; i < x.Rows; i++ {
		if x.At(i, 0) > 0 {
			labels[i] = 1
		} else {
			labels[i] = 0
		}
	}
	vx, vlabels := randBatch(rng, 50, 4, 2)
	for i := 0; i < vx.Rows; i++ {
		if vx.At(i, 0) > 0 {
			vlabels[i] = 1
		} else {
			vlabels[i] = 0
		}
	}
	net := NewNetwork(NewDense(4, 8, rng), NewReLU(), NewDense(8, 2, rng))
	tr := NewTrainer(net)
	hist := tr.Fit(x, labels, vx, vlabels, TrainConfig{Epochs: 40, BatchSize: 16, Patience: 3, Seed: 3})
	if hist.Epochs() > 40 {
		t.Fatal("ran too many epochs")
	}
	got := tr.Evaluate(vx, vlabels)
	best := hist.ValLoss[hist.BestEpoch]
	if math.Abs(got-best) > 1e-9 {
		t.Fatalf("restored val loss %v, best recorded %v", got, best)
	}
}

func TestFrozenParamsDoNotMove(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d1 := NewDense(3, 4, rng)
	d2 := NewDense(4, 2, rng)
	net := NewNetwork(d1, NewReLU(), d2)
	d1.W.Frozen = true
	d1.B.Frozen = true
	before := append([]float64(nil), d1.W.Value.Data...)
	x, labels := randBatch(rng, 50, 3, 2)
	NewTrainer(net).Fit(x, labels, nil, nil, TrainConfig{Epochs: 3, BatchSize: 10, Seed: 4})
	for i, v := range d1.W.Value.Data {
		if v != before[i] {
			t.Fatal("frozen weights changed during training")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lp := NewLandPool(5, 8, 5, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 16, rng), NewReLU(), NewDense(16, 7, rng))
	lp.Kernel.Frozen = true

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := randBatch(rng, 3, 7*5+5, 7)
	a := net.Forward(x)
	b := loaded.Forward(x)
	if !mat.Equal(a, b, 0) {
		t.Fatal("loaded network produces different outputs")
	}
	if !loaded.Params()[0].Frozen {
		t.Fatal("freeze flag lost in round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not gob")); err == nil {
		t.Fatal("want error")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(NewDense(3, 2, rng))
	c := net.Clone()
	x, _ := randBatch(rng, 2, 3, 2)
	if !mat.Equal(net.Forward(x), c.Forward(x), 0) {
		t.Fatal("clone differs")
	}
	c.Params()[0].Value.Data[0] += 1
	if mat.Equal(net.Forward(x), c.Forward(x), 1e-12) {
		t.Fatal("clone shares storage with original")
	}
}

func TestParamCountMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(NewDense(10, 20, rng), NewReLU(), NewDense(20, 3, rng))
	total, trainable := net.ParamCount()
	want := 10*20 + 20 + 20*3 + 3
	if total != want || trainable != want {
		t.Fatalf("ParamCount = %d/%d, want %d", total, trainable, want)
	}
	net.Params()[0].Frozen = true
	_, trainable = net.ParamCount()
	if trainable != want-200 {
		t.Fatalf("trainable after freeze = %d", trainable)
	}
}

func TestInputGradientNormalizesAsAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lp := NewLandPool(2, 4, 1, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 3, rng))
	x := make([]float64, 5*2+1)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	grad, probs := net.InputGradient(x, -1)
	if len(grad) != len(x) {
		t.Fatalf("grad len %d, want %d", len(grad), len(x))
	}
	var s float64
	for _, p := range probs {
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatal("probs not normalized")
	}
	// At least one non-zero gradient entry expected.
	nonzero := false
	for _, g := range grad {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("all-zero input gradient")
	}
}

func TestSGDDecaySchedule(t *testing.T) {
	p := newParam("w", 1, 1)
	p.Grad.Data[0] = 1
	o := &SGD{LR: 1, Momentum: 0, Decay: 1, Nesterov: false}
	o.Step([]*Param{p}) // lr = 1/(1+0) = 1
	if p.Value.Data[0] != -1 {
		t.Fatalf("after step 1: %v", p.Value.Data[0])
	}
	p.Grad.Data[0] = 1
	o.Step([]*Param{p}) // lr = 1/(1+1) = 0.5
	if p.Value.Data[0] != -1.5 {
		t.Fatalf("after step 2: %v", p.Value.Data[0])
	}
}

func TestSGDNesterovMatchesManual(t *testing.T) {
	p := newParam("w", 1, 1)
	o := &SGD{LR: 0.1, Momentum: 0.9, Decay: 0, Nesterov: true}
	var v, w float64
	for i := 0; i < 5; i++ {
		g := float64(i + 1)
		p.Grad.Data[0] = g
		o.Step([]*Param{p})
		v = 0.9*v - 0.1*g
		w += 0.9*v - 0.1*g
		if math.Abs(p.Value.Data[0]-w) > 1e-12 {
			t.Fatalf("step %d: got %v want %v", i, p.Value.Data[0], w)
		}
	}
}

// Property: pooling ops are permutation-invariant (commutative Ω, §III-C).
func TestPoolOpsPermutationInvariantProperty(t *testing.T) {
	ops := DefaultPoolOps()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		perm := rng.Perm(n)
		shuffled := make([]float64, n)
		for i, j := range perm {
			shuffled[i] = vals[j]
		}
		for _, op := range ops {
			if math.Abs(op.Forward(vals)-op.Forward(shuffled)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: pooling backward conserves gradient mass for linear ops (avg),
// and routes exactly g for min/max/percentile.
func TestPoolBackwardMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		g := rng.NormFloat64()
		for _, op := range []PoolOp{AvgPool{}, MinPool{}, MaxPool{}, PercentilePool{P: 30}} {
			dvals := make([]float64, n)
			op.Backward(vals, g, dvals)
			var s float64
			for _, d := range dvals {
				s += d
			}
			if math.Abs(s-g) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolOpsByNameRoundTrip(t *testing.T) {
	ops := DefaultPoolOps()
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name()
	}
	rebuilt := PoolOpsByName(names)
	vals := []float64{3, 1, 4, 1, 5}
	for i := range ops {
		if ops[i].Forward(vals) != rebuilt[i].Forward(vals) {
			t.Fatalf("op %s does not round-trip", names[i])
		}
	}
}

func TestPoolOpsByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	PoolOpsByName([]string{"median-ish"})
}

// Extreme inputs must never produce NaN/Inf anywhere in the pipeline.
func TestNetworkNumericallyRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	lp := NewLandPool(5, 8, 5, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 16, rng), NewReLU(), NewDense(16, 7, rng))
	for _, scale := range []float64{0, 1e-12, 1e6, -1e6} {
		x := make([]float64, 10*5+5)
		for i := range x {
			x[i] = scale * rng.Float64()
		}
		grad, probs := net.InputGradient(x, -1)
		for _, p := range probs {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("scale %v: non-finite probability", scale)
			}
		}
		for _, g := range grad {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("scale %v: non-finite gradient", scale)
			}
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("Argmax wrong")
	}
	if Argmax([]float64{5}) != 0 {
		t.Fatal("Argmax single element")
	}
}

// TestInputGradientBatchMatchesRows pins the batching contract: each row
// of InputGradientBatch equals the one-sample InputGradient exactly, and
// neither inference pass writes any Param.Grad.
func TestInputGradientBatchMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net, _ := tableINet(rng)
	for _, p := range net.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	before := snapshotGrads(net)
	x, _ := benchBatch(rng, 7, 6)
	grads, probs := net.InputGradientBatch(x, nil)
	for i := 0; i < x.Rows; i++ {
		g, p := net.InputGradient(x.Row(i), -1)
		if !mat.Equal(mat.FromSlice(1, len(g), grads.Row(i)), mat.FromSlice(1, len(g), g), 0) ||
			!mat.Equal(mat.FromSlice(1, len(p), probs.Row(i)), mat.FromSlice(1, len(p), p), 0) {
			t.Fatalf("row %d differs from the one-sample pass", i)
		}
	}
	for i, p := range net.Params() {
		if !mat.Equal(p.Grad, before[i], 0) {
			t.Fatalf("inference wrote %s.Grad", p.Name)
		}
	}
}
