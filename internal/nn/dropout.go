package nn

import (
	"fmt"
	"math/rand"

	"diagnet/internal/mat"
)

// Dropout zeroes a fraction Rate of activations during training (inverted
// dropout: survivors are scaled by 1/(1−Rate) so inference needs no
// rescaling) and is the identity at inference. Offered as regularization
// infrastructure for hyperparameter studies; the paper's Table I model
// does not use it.
type Dropout struct {
	Rate float64

	rng *rand.Rand // drawn from by training passes only
}

// NewDropout builds a dropout layer with rate in [0, 1).
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward applies a fresh mask under train and passes x through
// otherwise. The cache is the survivor mask (nil for the identity).
func (d *Dropout) Forward(x *mat.Matrix, train bool) (*mat.Matrix, any) {
	if !train || d.Rate == 0 {
		return x, []bool(nil)
	}
	y := x.Clone()
	mask := make([]bool, len(y.Data))
	scale := 1 / (1 - d.Rate)
	for i := range y.Data {
		if d.rng.Float64() < d.Rate {
			y.Data[i] = 0
		} else {
			mask[i] = true
			y.Data[i] *= scale
		}
	}
	return y, mask
}

// Backward routes gradients through the surviving units only.
func (d *Dropout) Backward(cache any, dout *mat.Matrix, _ bool) *mat.Matrix {
	mask := cache.([]bool)
	if mask == nil {
		return dout
	}
	if len(mask) != len(dout.Data) {
		panic("nn: Dropout.Backward shape mismatch with Forward")
	}
	dx := dout.Clone()
	scale := 1 / (1 - d.Rate)
	for i := range dx.Data {
		if mask[i] {
			dx.Data[i] *= scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil: dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Spec implements Layer.
func (d *Dropout) Spec() LayerSpec {
	return LayerSpec{Kind: "dropout", Strings: []string{fmt.Sprintf("%g", d.Rate)}}
}
