package continual

import (
	"testing"

	"diagnet/internal/durable"
	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
)

// mkSample builds a live sample under the given landmarks with a
// recognizable feature fill.
func mkSample(service, family int, landmarks []int, fill float64) Sample {
	l := probe.NewLayout(landmarks)
	feats := make([]float64, l.NumFeatures())
	for i := range feats {
		feats[i] = fill + float64(i)
	}
	return Sample{Service: service, Landmarks: landmarks, Features: feats, Family: family, Cause: -1}
}

func TestStoreStratifiedBound(t *testing.T) {
	s, err := OpenStore(StoreConfig{PerStratum: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lms := []int{1, 2}
	// 100 samples into one stratum, 5 into another: the big one must be
	// capped, the small one kept whole.
	for i := 0; i < 100; i++ {
		if err := s.Ingest(mkSample(0, 1, lms, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.Ingest(mkSample(7, 2, lms, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != 8+5 {
		t.Fatalf("Len = %d, want 13", got)
	}
	if got := s.Strata(); got != 2 {
		t.Fatalf("Strata = %d, want 2", got)
	}
	if got := s.Seen(); got != 105 {
		t.Fatalf("Seen = %d, want 105", got)
	}
}

func TestStoreRejectsMismatchedWidth(t *testing.T) {
	s, _ := OpenStore(StoreConfig{})
	bad := Sample{Service: 0, Landmarks: []int{1, 2}, Features: []float64{1, 2, 3}}
	if err := s.Ingest(bad); err == nil {
		t.Fatal("mismatched feature width accepted")
	}
	if s.Len() != 0 {
		t.Fatal("rejected sample was stored")
	}
}

func TestStoreJournalReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreConfig{Dir: dir, PerStratum: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lms := []int{3, 4, 5}
	for i := 0; i < 20; i++ {
		if err := s.Ingest(mkSample(i%2, 1, lms, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	wantLen, wantSeen := s.Len(), s.Seen()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the journaled stream is re-sampled with the same seed, so
	// the buffer size and offered count come back exactly.
	s2, err := OpenStore(StoreConfig{Dir: dir, PerStratum: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != wantLen || s2.Seen() != wantSeen {
		t.Fatalf("after replay Len=%d Seen=%d, want %d/%d", s2.Len(), s2.Seen(), wantLen, wantSeen)
	}
}

func TestStoreCompactBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreConfig{Dir: dir, PerStratum: 4, Seed: 9, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	lms := []int{3}
	for i := 0; i < 50; i++ {
		if err := s.Ingest(mkSample(0, 1, lms, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// After compaction the journal holds exactly the buffered samples:
	// replay must see 4 offered == 4 kept.
	s2, err := OpenStore(StoreConfig{Dir: dir, PerStratum: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 4 || s2.Seen() != 4 {
		t.Fatalf("after compact+replay Len=%d Seen=%d, want 4/4", s2.Len(), s2.Seen())
	}
}

// TestStoreCompactSyncsOnce: compacting N buffered samples under
// FsyncAlways costs O(1) journal syncs, not one per rewritten record —
// compaction holds the store lock, so every sync stalls readers.
func TestStoreCompactSyncsOnce(t *testing.T) {
	const n = 64
	s, err := OpenStore(StoreConfig{
		Dir: t.TempDir(), PerStratum: n, Seed: 9, CompactEvery: -1, Fsync: durable.FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		if err := s.Ingest(mkSample(0, 1, []int{3}, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("buffered %d samples, want %d", s.Len(), n)
	}
	syncs := telemetry.Default().Counter("durable.journal.syncs")
	before := syncs.Value()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Rotate seals the old segment (1), the rewrite syncs once (1), and the
	// explicit pre-drop Sync (1).
	if d := syncs.Value() - before; d > 3 {
		t.Fatalf("compacting %d samples cost %d journal syncs, want at most 3", n, d)
	}
}

func TestStoreExportLiftsLayouts(t *testing.T) {
	s, _ := OpenStore(StoreConfig{Seed: 2})
	full := probe.NewLayout([]int{10, 20, 30})

	// A sample measured under a narrower layout, out of order relative to
	// the full layout, plus one unknown landmark (99) that must drop.
	sub := []int{30, 99}
	smp := mkSample(1, 2, sub, 100)
	if err := s.Ingest(smp); err != nil {
		t.Fatal(err)
	}
	train, holdout := s.Export(full, 0.5, 1)
	if holdout.Len() != 0 {
		t.Fatalf("unlabeled sample landed in holdout")
	}
	if train.Len() != 1 {
		t.Fatalf("train len %d, want 1", train.Len())
	}
	got := train.Samples[0]
	if len(got.Features) != full.NumFeatures() {
		t.Fatalf("lifted width %d, want %d", len(got.Features), full.NumFeatures())
	}
	subL := probe.NewLayout(sub)
	// Landmark 30 moves from position 0 to position 2.
	for m := probe.Metric(0); m < probe.NumMetrics; m++ {
		want := smp.Features[subL.FeatureIndex(0, m)]
		if got.Features[full.FeatureIndex(2, m)] != want {
			t.Fatalf("metric %d of landmark 30 not lifted", m)
		}
	}
	// Landmark 10 was never measured: zero-filled.
	for m := probe.Metric(0); m < probe.NumMetrics; m++ {
		if got.Features[full.FeatureIndex(0, m)] != 0 {
			t.Fatal("unmeasured landmark not zero-filled")
		}
	}
	// Locals ride along.
	for li := 0; li < probe.NumLocal; li++ {
		if got.Features[full.LocalIndex(li)] != smp.Features[subL.LocalIndex(li)] {
			t.Fatalf("local %d not lifted", li)
		}
	}
	if !got.Degraded || got.Family != 2 {
		t.Fatalf("label lost in lift: degraded=%v family=%v", got.Degraded, got.Family)
	}
}

func TestStoreExportHoldsOutLabeledOnly(t *testing.T) {
	s, _ := OpenStore(StoreConfig{PerStratum: 256, Seed: 4})
	lms := []int{1, 2}
	for i := 0; i < 100; i++ {
		smp := mkSample(0, 1, lms, float64(i))
		smp.Labeled = i%2 == 0 // 50 labeled, 50 pseudo
		if err := s.Ingest(smp); err != nil {
			t.Fatal(err)
		}
	}
	full := probe.NewLayout(lms)
	train, holdout := s.Export(full, 0.5, 11)
	if holdout.Len() == 0 {
		t.Fatal("no labeled samples held out")
	}
	if holdout.Len() >= 50 {
		t.Fatalf("holdout %d took every labeled sample", holdout.Len())
	}
	if train.Len()+holdout.Len() != 100 {
		t.Fatalf("split lost samples: %d + %d != 100", train.Len(), holdout.Len())
	}
}

func TestLiftCause(t *testing.T) {
	from := probe.NewLayout([]int{30, 99})
	full := probe.NewLayout([]int{10, 20, 30})
	// Metric 1 of landmark 30: index 1 in from, index 2*5+1 in full.
	if got := liftCause(1, from, full); got != full.FeatureIndex(2, 1) {
		t.Fatalf("lifted cause %d", got)
	}
	// A cause on the unknown landmark 99 drops.
	if got := liftCause(from.FeatureIndex(1, 0), from, full); got != -1 {
		t.Fatalf("unknown-landmark cause lifted to %d", got)
	}
	// Local causes translate across widths.
	if got := liftCause(from.LocalIndex(3), from, full); got != full.LocalIndex(3) {
		t.Fatalf("local cause lifted to %d", got)
	}
	if got := liftCause(-1, from, full); got != -1 {
		t.Fatal("unknown cause must stay -1")
	}
}
