package core

import (
	"context"
	"testing"

	"diagnet/internal/probe"
	"diagnet/internal/tracing"
)

// BenchmarkDiagnoseTracing quantifies the request-tracing overhead on a
// Table-I-sized model. "disabled" is the production-off baseline — every
// StartSpan reduces to one atomic load plus a branch, budgeted at <2%
// over the untraced PR 3 pipeline. "sampled" runs with full recording: a
// root span, four retroactive stage children and trace finalization into
// the ring per call, the worst case a traced request pays.
func BenchmarkDiagnoseTracing(b *testing.B) {
	m := syntheticModel(24, []int{512, 128})
	x := goldenInput()
	full := probe.FullLayout()

	b.Run("disabled", func(b *testing.B) {
		tracing.SetEnabled(false)
		defer tracing.SetEnabled(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Diagnose(x, full)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Diagnose(x, full)
		}
	})
}

// TestDiagnoseContextRecordsTrace pins the core span topology: one call
// whose context carries a span yields a retrievable trace whose core.diagnose span carries the
// four pipeline stage children.
func TestDiagnoseContextRecordsTrace(t *testing.T) {
	m := syntheticModel(6, []int{24, 12})
	_, span := tracing.StartSpan(context.Background(), "test.root")
	id := span.TraceID()
	ctx := tracing.ContextWithSpan(context.Background(), span)
	m.DiagnoseBatch(ctx, [][]float64{goldenInput()}, probe.FullLayout())
	span.End()

	rec, ok := tracing.Default().Trace(id)
	if !ok {
		t.Fatalf("trace %s not kept", id)
	}
	stages := map[string]bool{}
	for _, sp := range rec.Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{
		"core.diagnose",
		"core.stage.normalize",
		"core.stage.forward_gradient",
		"core.stage.weighting",
		"core.stage.ensemble",
	} {
		if !stages[want] {
			t.Errorf("trace lacks span %q (have %v)", want, stages)
		}
	}
}
