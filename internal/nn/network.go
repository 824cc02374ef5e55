package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"diagnet/internal/mat"
)

// LayerSpec is a serializable description of a layer's architecture.
type LayerSpec struct {
	Kind    string
	Ints    map[string]int
	Strings []string
}

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer
}

// NewNetwork wraps layers into a network.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the batch x through every layer in inference mode. It
// writes nothing shared, so concurrent calls on one network are safe.
func (n *Network) Forward(x *mat.Matrix) *mat.Matrix {
	y, _ := n.forward(x, false)
	return y
}

// forward runs x through every layer and returns the output plus each
// layer's cache, which backward consumes. train selects training-time
// behaviour (dropout masks).
func (n *Network) forward(x *mat.Matrix, train bool) (*mat.Matrix, []any) {
	caches := make([]any, len(n.Layers))
	for i, l := range n.Layers {
		x, caches[i] = l.Forward(x, train)
	}
	return x, caches
}

// backward propagates dout from the output back to the input through the
// caches of one forward call and returns the gradient with respect to the
// input batch. Only under train are parameter gradients accumulated.
func (n *Network) backward(caches []any, dout *mat.Matrix, train bool) *mat.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(caches[i], dout, train)
	}
	return dout
}

// Params returns all parameters of all layers in order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar parameters, and the number
// that are currently trainable (not frozen).
func (n *Network) ParamCount() (total, trainable int) {
	for _, p := range n.Params() {
		c := len(p.Value.Data)
		total += c
		if !p.Frozen {
			trainable += c
		}
	}
	return total, trainable
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// InputGradient returns the gradient of the ideal-label cross-entropy loss
// L* = −log softmax(f(x))[target] with respect to the input features of a
// single sample, plus the softmax probabilities of the forward pass; a
// negative target selects the arg-max class. This is DiagNet's attention
// primitive (§III-E): it requires white-box access to the network, which
// this engine provides by construction. It is the one-row case of
// InputGradientBatch.
func (n *Network) InputGradient(x []float64, target int) (grad []float64, probs []float64) {
	g, p := n.InputGradientBatch(mat.FromSlice(1, len(x), x), []int{target})
	return g.Row(0), p.Row(0)
}

// InputGradientBatch is the batched InputGradient: one forward and one
// input-gradient-only backward pass over the whole b×n batch. Because no
// layer mixes information across rows, row i of the result equals
// InputGradient(x.Row(i), targets[i]) — but the weight matrices are
// streamed from memory once per batch rather than once per sample, which
// is what makes the serving engine's micro-batching pay. targets may be
// nil (per-row arg-max ideal labels) or hold one class per row, -1
// selecting that row's arg-max (written back into targets). No parameter
// gradient is computed and nothing shared is written, so concurrent calls
// on one network are safe; x is only read.
func (n *Network) InputGradientBatch(x *mat.Matrix, targets []int) (grads, probs *mat.Matrix) {
	logits, caches := n.forward(x, false)
	tg := targets
	if tg == nil {
		tg = make([]int, logits.Rows)
		for i := range tg {
			tg[i] = -1
		}
	}
	for i := range tg {
		if tg[i] < 0 {
			tg[i] = Argmax(logits.Row(i))
		}
	}
	return n.backward(caches, IdealLossGrad(logits, tg), false), Softmax(logits)
}

// Argmax returns the index of the largest value in xs.
func Argmax(xs []float64) int {
	arg := 0
	for i, v := range xs {
		if v > xs[arg] {
			arg = i
		}
	}
	return arg
}

// snapshot is the gob wire format of a network.
type snapshot struct {
	Specs  []LayerSpec
	Values [][]float64
	Frozen []bool
}

// Save writes the network's architecture and parameters to w with gob.
func (n *Network) Save(w io.Writer) error {
	var s snapshot
	for _, l := range n.Layers {
		s.Specs = append(s.Specs, l.Spec())
	}
	for _, p := range n.Params() {
		s.Values = append(s.Values, p.Value.Data)
		s.Frozen = append(s.Frozen, p.Frozen)
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	rng := rand.New(rand.NewSource(0)) // weights are overwritten below
	var layers []Layer
	for _, spec := range s.Specs {
		l, err := buildLayer(spec, rng)
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
	}
	net := NewNetwork(layers...)
	ps := net.Params()
	if len(ps) != len(s.Values) {
		return nil, fmt.Errorf("nn: load: %d params in file, %d in architecture", len(s.Values), len(ps))
	}
	for i, p := range ps {
		if len(s.Values[i]) != len(p.Value.Data) {
			return nil, fmt.Errorf("nn: load: param %d has %d values, want %d", i, len(s.Values[i]), len(p.Value.Data))
		}
		copy(p.Value.Data, s.Values[i])
		p.Frozen = s.Frozen[i]
	}
	return net, nil
}

func buildLayer(spec LayerSpec, rng *rand.Rand) (Layer, error) {
	switch spec.Kind {
	case "dense":
		return NewDense(spec.Ints["in"], spec.Ints["out"], rng), nil
	case "relu":
		return NewReLU(), nil
	case "landpool":
		ops := PoolOpsByName(spec.Strings)
		return NewLandPool(spec.Ints["k"], spec.Ints["f"], spec.Ints["local"], ops, rng), nil
	case "dropout":
		var rate float64
		if len(spec.Strings) == 1 {
			if _, err := fmt.Sscanf(spec.Strings[0], "%g", &rate); err != nil {
				return nil, fmt.Errorf("nn: bad dropout rate %q", spec.Strings[0])
			}
		}
		return NewDropout(rate, rng), nil
	default:
		return nil, fmt.Errorf("nn: unknown layer kind %q", spec.Kind)
	}
}

// Clone returns a deep copy of the network (weights, freeze flags).
func (n *Network) Clone() *Network {
	rng := rand.New(rand.NewSource(0))
	var layers []Layer
	for _, l := range n.Layers {
		nl, err := buildLayer(l.Spec(), rng)
		if err != nil {
			panic(err)
		}
		layers = append(layers, nl)
	}
	c := NewNetwork(layers...)
	src, dst := n.Params(), c.Params()
	for i := range src {
		copy(dst[i].Value.Data, src[i].Value.Data)
		dst[i].Frozen = src[i].Frozen
	}
	return c
}
