package nn

import (
	"math"

	"diagnet/internal/mat"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
	Reset()
}

// Statically assert both optimizers satisfy the interface.
var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*Adam)(nil)
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015). The paper's
// DiagNet uses SGD+Nesterov (Table I); Adam is provided for the
// hyperparameter-exploration harness and for users tuning their own
// deployments.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// ClipNorm rescales gradients when their global L2 norm exceeds it;
	// 0 disables clipping.
	ClipNorm float64

	step int
	m    map[*Param]*mat.Matrix
	v    map[*Param]*mat.Matrix
}

// Step applies one update to every non-frozen parameter.
func (o *Adam) Step(params []*Param) {
	if o.m == nil {
		o.m = make(map[*Param]*mat.Matrix)
		o.v = make(map[*Param]*mat.Matrix)
	}
	if o.ClipNorm > 0 {
		var sq float64
		for _, p := range params {
			if p.Frozen {
				continue
			}
			for _, g := range p.Grad.Data {
				sq += g * g
			}
		}
		if norm := math.Sqrt(sq); norm > o.ClipNorm {
			scale := o.ClipNorm / norm
			for _, p := range params {
				if !p.Frozen {
					p.Grad.Scale(scale)
				}
			}
		}
	}
	o.step++
	t := float64(o.step)
	corr1 := 1 - math.Pow(o.Beta1, t)
	corr2 := 1 - math.Pow(o.Beta2, t)
	for _, p := range params {
		if p.Frozen {
			continue
		}
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = mat.New(p.Value.Rows, p.Value.Cols)
			v = mat.New(p.Value.Rows, p.Value.Cols)
			o.m[p] = m
			o.v[p] = v
		}
		for i, g := range p.Grad.Data {
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mHat := m.Data[i] / corr1
			vHat := v.Data[i] / corr2
			p.Value.Data[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}

// Reset clears the moment estimates and the step counter.
func (o *Adam) Reset() {
	o.step = 0
	o.m, o.v = nil, nil
}
