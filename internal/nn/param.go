// Package nn is a compact feed-forward neural network engine written for
// DiagNet: dense layers, ReLU, the paper's LandPooling layer, a softmax
// cross-entropy loss, and SGD with Nesterov momentum and learning-rate
// decay (Table I of the paper).
//
// The engine is a white-box replacement for the TensorFlow 1.13 stack the
// authors used. It exposes full backpropagation — including gradients with
// respect to the *inputs* — which DiagNet's attention mechanism (§III-E)
// requires, and supports freezing parameters, which the per-service
// specialization procedure (§IV-F) requires.
//
// Layers hold only their parameters. A forward pass returns its per-layer
// caches to the caller, and the backward pass accumulates parameter
// gradients only when training; inference — Forward and the input-gradient
// passes — writes no shared state, so one Network serves concurrent
// callers.
//
// All computations are float64 and deterministic for a given seed.
package nn

import (
	"math"
	"math/rand"

	"diagnet/internal/mat"
)

// Param is one trainable tensor: its value, the gradient accumulated by the
// latest training backward pass, and a freeze flag honoured by optimizers.
type Param struct {
	Name   string
	Value  *mat.Matrix
	Grad   *mat.Matrix
	Frozen bool
}

func newParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: mat.New(rows, cols),
		Grad:  mat.New(rows, cols),
	}
}

// glorotInit fills p.Value with Glorot/Xavier-uniform samples for a layer
// with the given fan-in and fan-out.
func glorotInit(p *Param, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.Value.Data {
		p.Value.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}
