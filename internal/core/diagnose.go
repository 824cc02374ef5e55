package core

import (
	"context"
	"math"
	"sort"

	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// Diagnosis is the output of DiagNet for one degraded sample: the coarse
// family prediction plus per-feature root-cause scores at every stage of
// the pipeline (attention → Algorithm 1 weighting → ensemble averaging).
// Scores are indexed by the features of the inference layout.
type Diagnosis struct {
	Layout probe.Layout
	// Coarse is the softmax distribution over the c fault families.
	Coarse []float64
	// Family is the arg-max coarse family.
	Family probe.Family
	// Attention is γ̂, the normalized input-gradient usefulness (Eq. 1).
	Attention []float64
	// Tuned is γ̂′ after the multi-label score weighting of Algorithm 1.
	Tuned []float64
	// UnknownWeight is w_U, the tuned attention mass on features of
	// landmarks unseen during training (§III-F).
	UnknownWeight float64
	// Final is the ensemble-averaged score vector used for ranking.
	Final []float64
}

// Ranked returns the feature indices sorted by decreasing final score.
// Ties break on the lower index for determinism.
func (d *Diagnosis) Ranked() []int {
	idx := make([]int, len(d.Final))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d.Final[idx[a]] > d.Final[idx[b]] })
	return idx
}

// Diagnose runs the full DiagNet pipeline on a raw measurement vector
// collected under `layout` (which may contain landmarks the model never
// saw during training — the whole point of root-cause extensibility). It
// is the one-sample case of DiagnoseBatch.
func (m *Model) Diagnose(features []float64, layout probe.Layout) *Diagnosis {
	return m.DiagnoseBatch(context.Background(), [][]float64{features}, layout)[0]
}

// DiagnoseBatch diagnoses b samples that share one layout with one fused
// forward and input-gradient pass over the b×n batch: the network's weight
// matrices are streamed from memory once per batch instead of once per
// sample, which is where the serving engine's micro-batching throughput
// comes from. Rows are independent, so row i equals
// Diagnose(features[i], layout) bit for bit. Results are in input order.
//
// DiagnoseBatch only reads the model, so it is safe for concurrent use.
// When ctx holds an active trace span (the serving engine passes the
// micro-batch span), the pass records a "core.diagnose" child span with
// per-stage children at the StageClock boundaries, and the total-latency
// histogram captures the trace ID as its tail exemplar.
func (m *Model) DiagnoseBatch(ctx context.Context, features [][]float64, layout probe.Layout) []*Diagnosis {
	b, n := len(features), layout.NumFeatures()
	if b == 0 {
		return nil
	}
	for _, f := range features {
		if len(f) != n {
			panic("core: feature vector does not match layout")
		}
	}
	mDiagnoses.Add(int64(b))
	_, span := tracing.StartSpan(ctx, "core.diagnose")
	span.SetAttr("batch.size", b)
	span.SetAttr("features", n)
	stages := span.Stages()
	clock := telemetry.StartStages()

	x := mat.New(b, n)
	for i, f := range features {
		m.Norm.ApplyInto(f, layout, x.Row(i))
	}
	clock.Mark(mStageNormalize)
	stages.Mark("core.stage.normalize")

	// Steps ①–④ for the whole batch, then step ⑤ — one backpropagation of
	// each sample's arg-max ideal-label loss L* down to the inputs
	// (§III-E).
	grads, probs := m.Net.InputGradientBatch(x, nil)

	// Stage telemetry granularity under batching: normalize and total are
	// marked once per fused pass, while the per-row stages mark every row
	// (the first row's forward_gradient lap absorbs the batch's shared
	// network pass). Stage spans mirror that for the first row only — one
	// set of stage children per fused pass keeps traces readable.
	out := make([]*Diagnosis, b)
	for i := range out {
		rowStages := stages
		if i > 0 {
			rowStages = nil
		}
		out[i] = m.postprocess(grads.Row(i), probs.Row(i), features[i], layout, clock, rowStages)
	}
	clock.DoneExemplar(mDiagnoseTotal, span.TraceID())
	span.End()
	return out
}

// postprocess turns one sample's input gradient and coarse distribution
// into a Diagnosis: Eq. 1 attention, Algorithm 1 weighting and §III-F
// ensemble averaging. coarse is kept by the Diagnosis; stages may be nil.
func (m *Model) postprocess(grad, coarse, features []float64, layout probe.Layout, clock *telemetry.StageClock, stages *tracing.StageSpans) *Diagnosis {
	fam := probe.Family(nn.Argmax(coarse))

	// Equation 1: γ̂_j = |∇_j| / Σ|∇_k|.
	attention := make([]float64, len(grad))
	var sum float64
	for i, g := range grad {
		attention[i] = math.Abs(g)
		sum += attention[i]
	}
	if sum > 0 {
		for i := range attention {
			attention[i] /= sum
		}
	} else {
		// Degenerate gradient: fall back to a uniform distribution.
		u := 1 / float64(len(attention))
		for i := range attention {
			attention[i] = u
		}
	}
	clock.Mark(mStageAttention)
	stages.Mark("core.stage.forward_gradient")

	tuned := scoreWeighting(attention, coarse, layout, fam)
	clock.Mark(mStageWeighting)
	stages.Mark("core.stage.weighting")

	// Ensemble averaging (§III-F): w_U γ̂′ + (1−w_U) α̂.
	var wU float64
	for j := range tuned {
		if !layout.IsLocal(j) && !m.Known[layout.Landmarks[j/int(probe.NumMetrics)]] {
			wU += tuned[j]
		}
	}
	aux := m.auxScores(features, layout)
	final := make([]float64, len(tuned))
	for j := range final {
		final[j] = wU*tuned[j] + (1-wU)*aux[j]
	}
	clock.Mark(mStageEnsemble)
	stages.Mark("core.stage.ensemble")

	return &Diagnosis{
		Layout:        layout,
		Coarse:        coarse,
		Family:        fam,
		Attention:     attention,
		Tuned:         tuned,
		UnknownWeight: wU,
		Final:         final,
	}
}

// scoreWeighting is Algorithm 1 (multi-label score weighting): features of
// the same family as the best coarse prediction φ receive the bonus w/s,
// every other feature the penalty (1−w)/(1−s).
func scoreWeighting(gamma, coarse []float64, layout probe.Layout, fam probe.Family) []float64 {
	tuned := append([]float64(nil), gamma...)
	// p ← features with the same family as φ. Membership is recomputed
	// from the layout on the second pass instead of materializing p — the
	// old index-set map was the hot path's largest allocation.
	np := 0
	var s float64 // s ← Σ_{j∈p} γ̂_j
	for j := range gamma {
		if layout.FamilyOf(j) == fam {
			np++
			s += gamma[j]
		}
	}
	if np == 0 {
		// φ is the nominal family: no feature belongs to it.
		return tuned
	}
	// w ← y_φ / Σ y.
	var ysum float64
	for _, y := range coarse {
		ysum += y
	}
	w := coarse[fam] / ysum
	if s == 0 || s == 1 {
		return tuned // extreme cases: keep γ̂ unchanged
	}
	for j := range tuned {
		if layout.FamilyOf(j) == fam {
			tuned[j] = gamma[j] * w / s
		} else {
			tuned[j] = gamma[j] * (1 - w) / (1 - s)
		}
	}
	return tuned
}

// auxScores evaluates the auxiliary forest on the sample and re-indexes
// its full-layout scores onto the inference layout. Landmarks absent from
// the inference layout are zero-filled, mirroring the extensible-forest
// missing-value policy.
func (m *Model) auxScores(features []float64, layout probe.Layout) []float64 {
	full := m.FullLayout
	fullVec := make([]float64, full.NumFeatures())
	scores := make([]float64, m.Aux.Causes())
	out := make([]float64, layout.NumFeatures())
	for pos, region := range full.Landmarks {
		if lp := layout.LandmarkPos(region); lp >= 0 {
			for mt := 0; mt < int(probe.NumMetrics); mt++ {
				fullVec[full.FeatureIndex(pos, probe.Metric(mt))] = features[layout.FeatureIndex(lp, probe.Metric(mt))]
			}
		}
	}
	for li := 0; li < probe.NumLocal; li++ {
		fullVec[full.LocalIndex(li)] = features[layout.LocalIndex(li)]
	}
	m.Aux.ScoresInto(fullVec, scores)

	for j := range out {
		if layout.IsLocal(j) {
			out[j] = scores[full.LocalIndex(j-layout.NumLandmarks()*int(probe.NumMetrics))]
			continue
		}
		region := layout.Landmarks[j/int(probe.NumMetrics)]
		metric := probe.Metric(j % int(probe.NumMetrics))
		out[j] = scores[full.FeatureIndex(full.LandmarkPos(region), metric)]
	}
	return out
}

// CoarsePredict returns only the coarse family distribution for a raw
// sample (step ④), without running attention or the ensemble.
func (m *Model) CoarsePredict(features []float64, layout probe.Layout) []float64 {
	logits := m.Net.Forward(matFromRow(m.Norm.Apply(features, layout)))
	return nn.Softmax(logits).Row(0)
}

// Session forwards to Model.DiagnoseBatch. It exists only because the
// frozen benchmark in perfbench/layers.go calls it; use the Model directly.
type Session struct{ m *Model }

// NewSession returns a Session forwarding to m.
func (m *Model) NewSession() *Session { return &Session{m} }

// DiagnoseBatch is Model.DiagnoseBatch without a context.
func (s *Session) DiagnoseBatch(f [][]float64, l probe.Layout) []*Diagnosis {
	return s.m.DiagnoseBatch(context.Background(), f, l)
}
