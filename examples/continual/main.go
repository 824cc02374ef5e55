// Continual: the closed learning loop in one process — live diagnoses
// feed a journal-backed sample buffer, an operator trigger retrains a
// candidate warm-started from the serving model, the candidate shadows
// live traffic with zero client latency, a gate weighs labeled-holdout
// accuracy plus shadow agreement, and the promotion is hot-swapped in
// under a regression watchdog. Production runs the same loop inside
// diagnetd (-continual); here every phase is printed as it happens.
//
//	go run ./examples/continual
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"diagnet"
	"diagnet/internal/continual"
	"diagnet/internal/serving"
)

// Size knobs, package-level so the smoke test can shrink them.
var (
	nominalSamples = 600
	faultSamples   = 1400
	filters        = 8
	hidden         = []int{48, 24}
	epochs         = 8
	retrainEpochs  = 2
	shadowMin      = int64(64)
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// 1. Train the incumbent and promote it as "boot".
	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
	data := diagnet.Generate(diagnet.GenConfig{
		World: world, NominalSamples: nominalSamples, FaultSamples: faultSamples, Seed: 11,
	})
	train, test := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
	cfg := diagnet.DefaultConfig()
	cfg.Filters = filters
	cfg.Hidden = hidden
	cfg.Epochs = epochs
	model := diagnet.TrainGeneral(train, diagnet.KnownRegions(), cfg).Model

	engine := diagnet.NewServingEngine(diagnet.ServingConfig{BatchMax: 16})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		engine.Close(ctx)
	}()
	reg := engine.Registry()
	if err := reg.AddModel("boot", model); err != nil {
		return err
	}
	if err := reg.Promote("boot"); err != nil {
		return err
	}
	fmt.Fprintf(out, "serving version %q\n", reg.Active())

	// 2. A journal-backed sample store under a scratch state dir: every
	// accepted sample is journaled pre-ack, so a restarted daemon keeps
	// its buffer (diagnetd puts this under <state-dir>/continual).
	stateDir, err := os.MkdirTemp("", "diagnet-continual-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	store, err := continual.OpenStore(continual.StoreConfig{Dir: stateDir + "/samples"})
	if err != nil {
		return err
	}
	defer store.Close()

	trainer, err := continual.NewTrainer(continual.TrainerConfig{
		Epochs:        retrainEpochs,
		SpecializeMin: -1,
		CheckpointDir: stateDir + "/ckpt",
	})
	if err != nil {
		return err
	}
	ctrl, err := continual.NewController(continual.Config{
		Engine:  engine,
		Store:   store,
		Trainer: trainer,
		// A permissive gate keeps the walkthrough fast; production keeps
		// the defaults (64 shadow samples, non-negative holdout gain).
		Gate:           continual.GateConfig{MinShadowSamples: shadowMin, MinGain: -1, MaxPSI: 100, MaxLatencyRatio: 100},
		ShadowFraction: 1,
		CheckInterval:  10 * time.Millisecond,
		MinSamples:     1,
		WatchWindow:    300 * time.Millisecond,
		// The watchdog compares live behavior against a small shadow-phase
		// baseline; with few reference vectors PSI carries sampling noise
		// ~ classes·(1/n_ref + 1/n_live), so the walkthrough leaves margin.
		WatchPSI: 1.5,
		StateDir: stateDir + "/state",
	})
	if err != nil {
		return err
	}
	ctrl.Start()
	defer ctrl.Close()

	// 3. Live ingestion: buffer labeled feedback (ground truth from
	// resolved incidents — in production POST /v1/continual/samples; the
	// serving tap adds pseudo-labeled flow samples the same way).
	for i := range train.Samples {
		s := &train.Samples[i]
		err := ctrl.Ingest(continual.Sample{
			Service: s.Service, Landmarks: train.Layout.Landmarks,
			Features: s.Features, Family: int(s.Family), Cause: s.Cause, Labeled: true,
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "buffered %d live samples (%d labeled) across %d strata\n",
		store.Len(), store.LabeledLen(), store.Strata())

	// 4. Keep live traffic flowing while the cycle runs — the shadow tee
	// needs requests to copy through the candidate.
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		// Random sampling, not round-robin: phase-correlated traffic would
		// make the watchdog's live window a contiguous (biased) slice of
		// the test set and read the bias as a regression.
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := &test.Samples[rng.Intn(test.Len())]
			res, err := engine.SubmitWait(context.Background(), &serving.Request{
				ServiceID: s.Service, Layout: test.Layout, Features: s.Features,
			})
			if err == nil {
				ctrl.ObserveServing(res.Diagnosis.Coarse)
			}
		}
	}()
	defer func() { close(stop); pump.Wait() }()

	// 5. Trigger a cycle (production also triggers on drift signals or
	// -retrain-interval) and follow the state machine.
	if err := ctrl.TriggerRetrain("operator walkthrough"); err != nil {
		return err
	}
	seen := map[continual.State]bool{}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := ctrl.Status()
		if !seen[st.State] {
			seen[st.State] = true
			fmt.Fprintf(out, "state: %s\n", st.State)
		}
		if st.State == continual.StateCollecting && seen[continual.StatePromoting] {
			fmt.Fprintln(out, "watch window passed clean")
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loop stuck in %q: %+v", st.State, st)
		}
		if st.State == continual.StateRolledBack {
			return fmt.Errorf("unexpected rollback: %+v", st.Transitions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := ctrl.Status()
	// The polled "state:" lines above can skip a fast phase; the journaled
	// transition history is the authoritative record (it is what survives
	// a restart under diagnetd's -state-dir).
	for _, tr := range st.Transitions {
		fmt.Fprintf(out, "transition: %s -> %s (%s)\n", tr.From, tr.To, tr.Reason)
	}
	fmt.Fprintf(out, "decision: promote=%v (%s)\n", st.LastDecision.Promote, st.LastDecision.Reason)
	fmt.Fprintf(out, "shadow: %d samples, agreement %.2f\n", st.LastShadow.Samples, st.LastShadow.AgreeRate)
	fmt.Fprintf(out, "holdout: candidate %.3f vs incumbent %.3f on %d labeled\n",
		st.LastTrain.HoldoutCandidate, st.LastTrain.HoldoutIncumbent, st.LastTrain.HoldoutSamples)
	fmt.Fprintf(out, "serving version %q\n", reg.Active())

	// 6. The retrained candidate answers diagnoses now; prove it end to
	// end with one request attributed to the new version.
	deg := test.Degraded()
	if deg.Len() == 0 {
		return fmt.Errorf("no degraded samples")
	}
	s := &deg.Samples[0]
	res, err := engine.SubmitWait(context.Background(), &serving.Request{
		ServiceID: s.Service, Layout: test.Layout, Features: s.Features,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "diagnosis from %q: family %s\n", res.Version, res.Diagnosis.Family)
	return nil
}
