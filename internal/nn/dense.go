package nn

import (
	"fmt"
	"math/rand"

	"diagnet/internal/mat"
)

// Layer is one differentiable stage of a network. Layers hold only their
// parameters: every per-call intermediate travels in the cache Forward
// returns, so concurrent passes over one layer share nothing mutable.
type Layer interface {
	// Forward maps a batch (one sample per row) to the layer's output and
	// returns the cache Backward needs. train selects training-time
	// behaviour (dropout masks).
	Forward(x *mat.Matrix, train bool) (y *mat.Matrix, cache any)
	// Backward maps the loss gradient with respect to one Forward call's
	// output to the gradient with respect to that call's input. Only
	// under train — the training sink — are parameter gradients
	// accumulated into each Param.Grad; otherwise Backward writes nothing
	// but its result.
	Backward(cache any, dout *mat.Matrix, train bool) *mat.Matrix
	Params() []*Param
	// Spec describes the layer for serialization and cloning.
	Spec() LayerSpec
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	W       *Param // In×Out
	B       *Param // 1×Out
}

// NewDense creates a Dense layer with Glorot-uniform weights and zero bias.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   newParam(fmt.Sprintf("dense_%dx%d_w", in, out), in, out),
		B:   newParam(fmt.Sprintf("dense_%dx%d_b", in, out), 1, out),
	}
	glorotInit(d.W, in, out, rng)
	return d
}

// Forward computes x·W + b for a batch x (n×In); the cache is x itself.
func (d *Dense) Forward(x *mat.Matrix, _ bool) (*mat.Matrix, any) {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense.Forward: input width %d, want %d", x.Cols, d.In))
	}
	y := mat.Mul(nil, x, d.W.Value)
	y.AddRowVector(d.B.Value.Data)
	return y, x
}

// Backward returns dx = dout·Wᵀ and, under train, accumulates
// dW = xᵀ·dout and db = colsum(dout).
func (d *Dense) Backward(cache any, dout *mat.Matrix, train bool) *mat.Matrix {
	if train {
		x := cache.(*mat.Matrix)
		d.W.Grad.AddInPlace(mat.MulT1(nil, x, dout))
		for i := 0; i < dout.Rows; i++ {
			for j, v := range dout.Row(i) {
				d.B.Grad.Data[j] += v
			}
		}
	}
	return mat.MulT2(nil, dout, d.W.Value)
}

// Params returns the layer's weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Spec implements Layer.
func (d *Dense) Spec() LayerSpec {
	return LayerSpec{Kind: "dense", Ints: map[string]int{"in": d.In, "out": d.Out}}
}

// ReLU applies max(0, x) element-wise.
type ReLU struct{}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the rectifier; the cache is the output, whose positive
// entries are exactly the active units.
func (r *ReLU) Forward(x *mat.Matrix, _ bool) (*mat.Matrix, any) {
	y := x.Clone()
	for i, v := range y.Data {
		if !(v > 0) {
			y.Data[i] = 0
		}
	}
	return y, y
}

// Backward zeroes gradients where the forward input was non-positive.
func (r *ReLU) Backward(cache any, dout *mat.Matrix, _ bool) *mat.Matrix {
	y := cache.(*mat.Matrix)
	if len(y.Data) != len(dout.Data) {
		panic("nn: ReLU.Backward shape mismatch with Forward")
	}
	dx := dout.Clone()
	for i, v := range y.Data {
		if !(v > 0) {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Spec implements Layer.
func (r *ReLU) Spec() LayerSpec { return LayerSpec{Kind: "relu"} }
