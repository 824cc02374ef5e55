package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"diagnet/internal/analysis"
	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
)

// knownRegions are the landmarks available at training time; the paper's
// three hidden landmarks (netsim.HiddenLandmarks) first appear in requests.
var knownRegions = []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}

// modelSize fixes the trained fixture's architecture and training budget.
type modelSize struct {
	Name         string `json:"name"`
	Filters      int    `json:"filters"`
	Hidden       []int  `json:"hidden"`
	Epochs       int    `json:"epochs"`
	Trees        int    `json:"trees"`
	Depth        int    `json:"depth"`
	TrainSamples int    `json:"train_samples"`
}

// paperSize is Table I's width (24 filters, 512/128 hidden, 50 trees of
// depth 10). Serving and adaptation cost depend on the width, not on how
// long the fixture was trained; the budget only has to give a model whose
// answers are worth checking.
var paperSize = modelSize{Name: "paper", Filters: 24, Hidden: []int{512, 128}, Epochs: 6, Trees: 50, Depth: 10, TrainSamples: 1200}

// tinySize is for the harness self-tests only.
var tinySize = modelSize{Name: "tiny", Filters: 4, Hidden: []int{16, 8}, Epochs: 1, Trees: 4, Depth: 4, TrainSamples: 200}

// specializedCount is how many services get a specialized model in the
// bundle every replica serves.
const specializedCount = 2

// The deployment — the simulated world and the data the served models
// were trained on — is fixed, so the fixture is trained once per code
// version and every seed measures the same models. The workload seed
// generates the traffic: fresh samples from the same world.
const (
	worldSeed    = 1
	trainingSeed = 0x5eed
)

// deployment is what the fixture is trained on.
type deployment struct {
	train    *dataset.Dataset
	services []int // the specialized services
}

func genDeployment(size modelSize) *deployment {
	d := dataset.Generate(dataset.GenConfig{World: netsim.NewWorld(netsim.Config{Seed: worldSeed}),
		NominalSamples: 600, FaultSamples: 2000, Seed: trainingSeed})
	train, _ := d.Split(0.8, netsim.HiddenLandmarks(), trainingSeed)
	train = train.SampleN(size.TrainSamples, trainingSeed)
	return &deployment{train: train, services: busiestServices(train, specializedCount)}
}

// workloadData is what the seed determines: the test split requests are
// drawn from and labelled samples for feedback, none of them seen in
// training.
type workloadData struct {
	full     probe.Layout
	test     *dataset.Dataset
	feedback *dataset.Dataset
}

func genData(seed int64) *workloadData {
	d := dataset.Generate(dataset.GenConfig{World: netsim.NewWorld(netsim.Config{Seed: worldSeed}),
		NominalSamples: 600, FaultSamples: 2000, Seed: seed})
	feedback, test := d.Split(0.8, netsim.HiddenLandmarks(), seed+1)
	return &workloadData{full: d.Layout, test: test, feedback: feedback}
}

// specializedServices lists the services b has specialized models for.
func specializedServices(b *core.Bundle) []int {
	ids := make([]int, 0, len(b.Specialized))
	for id := range b.Specialized {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// busiestServices returns the k services with the most training samples
// (ties to the lower ID), so every specialized model has data to fit.
func busiestServices(d *dataset.Dataset, k int) []int {
	counts := map[int]int{}
	for i := range d.Samples {
		counts[d.Samples[i].Service]++
	}
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if counts[ids[a]] != counts[ids[b]] {
			return counts[ids[a]] > counts[ids[b]]
		}
		return ids[a] < ids[b]
	})
	ids = ids[:min(k, len(ids))]
	sort.Ints(ids)
	return ids
}

func trainBundle(d *deployment, size modelSize) *core.Bundle {
	cfg := core.DefaultConfig()
	cfg.Filters = size.Filters
	cfg.Hidden = size.Hidden
	cfg.Epochs = size.Epochs
	cfg.Forest = forest.Config{Trees: size.Trees, Tree: forest.TreeConfig{MaxDepth: size.Depth}}
	b := core.NewBundle(core.TrainGeneral(d.train, knownRegions, cfg).Model)
	b.SpecializeAll(d.train, d.services)
	return b
}

// fixturePath names the trained bundle for one code version and model
// size; a later run with both equal reuses it.
func fixturePath(work, digest string, size modelSize) string {
	return filepath.Join(work, "fixtures", fmt.Sprintf("%s-%s.gob", digest[:16], size.Name))
}

// buildFixture trains the bundle and writes it to path atomically.
func buildFixture(path string, size modelSize) error {
	b := trainBundle(genDeployment(size), size)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := b.Save(w); err != nil {
		f.Close()
		return fmt.Errorf("save fixture: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func loadBundle(path string) (*core.Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadBundle(bufio.NewReader(f))
}

// poolReq is one distinct diagnose request of the workload's pool.
type poolReq struct {
	req    analysis.DiagnoseRequest
	layout probe.Layout
	body   []byte
	// cause is the true root cause under the request's layout, or -1 when
	// the sample is nominal or its causing landmark is not in the layout.
	cause int
}

const (
	maxPool         = 1024
	partialLayouts  = 3
	partialShare    = 0.3
	partialLandmark = 7
)

// buildPool draws up to maxPool requests from the test split. A share of
// them is projected onto one of a few seeded 7-landmark layouts (agents
// that probe part of the fleet); the rest keep the full 10-landmark
// layout, including the landmarks hidden during training.
func buildPool(d *workloadData, seed int64) ([]poolReq, error) {
	rng := rand.New(rand.NewSource(seed + 3))
	layouts := make([]probe.Layout, partialLayouts)
	for i := range layouts {
		keep := map[int]bool{}
		for _, j := range rng.Perm(d.full.NumLandmarks())[:partialLandmark] {
			keep[d.full.Landmarks[j]] = true
		}
		var regions []int
		for _, r := range d.full.Landmarks {
			if keep[r] {
				regions = append(regions, r)
			}
		}
		layouts[i] = probe.NewLayout(regions)
	}
	order := rng.Perm(d.test.Len())
	pool := make([]poolReq, 0, min(maxPool, len(order)))
	for _, j := range order[:min(maxPool, len(order))] {
		s := &d.test.Samples[j]
		layout := d.full
		feats := append([]float64(nil), s.Features...)
		if rng.Float64() < partialShare {
			layout = layouts[rng.Intn(len(layouts))]
			feats = d.full.Project(s.Features, layout)
		}
		p := poolReq{
			req:    analysis.DiagnoseRequest{ServiceID: s.Service, Landmarks: layout.Landmarks, Features: feats},
			layout: layout,
			cause:  -1,
		}
		if s.Degraded {
			p.cause = liftCause(s.Cause, d.full, layout)
		}
		var err error
		if p.body, err = json.Marshal(&p.req); err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// liftCause re-expresses a cause index of layout from under layout to,
// or -1 when its landmark is absent from to.
func liftCause(cause int, from, to probe.Layout) int {
	if cause < 0 {
		return -1
	}
	if from.IsLocal(cause) {
		return to.LocalIndex(cause - from.NumLandmarks()*int(probe.NumMetrics))
	}
	pos := to.LandmarkPos(from.Landmarks[cause/int(probe.NumMetrics)])
	if pos < 0 {
		return -1
	}
	return to.FeatureIndex(pos, probe.Metric(cause%int(probe.NumMetrics)))
}

// feedbackSample turns a labelled sample into ground-truth feedback.
func feedbackSample(s *dataset.Sample, full probe.Layout) continual.Sample {
	return continual.Sample{
		Service:   s.Service,
		Landmarks: full.Landmarks,
		Features:  s.Features,
		Family:    int(s.Family),
		Cause:     s.Cause,
	}
}
