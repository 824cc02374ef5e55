// Serving: run the inference serving engine — concurrent diagnoses are
// coalesced into fused micro-batches, a second model version is hot-swapped
// in under load, and the rollout is rolled back, all without dropping a
// request.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"diagnet"
)

// Size knobs, package-level so the smoke test can shrink them.
var (
	nominalSamples = 600
	faultSamples   = 1400
	filters        = 8
	hidden         = []int{48, 24}
	epochs         = 8
	clients        = 16
	perClient      = 20
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// 1. Train two model versions: "v1" fresh off TrainGeneral, and "v2"
	// the same network specialized to the service we are diagnosing — the
	// lifecycle of a §VI drift-triggered retrain.
	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
	data := diagnet.Generate(diagnet.GenConfig{
		World:          world,
		NominalSamples: nominalSamples,
		FaultSamples:   faultSamples,
		Seed:           11,
	})
	train, test := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
	cfg := diagnet.DefaultConfig()
	cfg.Filters = filters
	cfg.Hidden = hidden
	cfg.Epochs = epochs
	model := diagnet.TrainGeneral(train, diagnet.KnownRegions(), cfg).Model
	fmt.Fprintf(out, "trained general model (%d features)\n", train.Layout.NumFeatures())

	deg := test.Degraded()
	if deg.Len() == 0 {
		return fmt.Errorf("no degraded samples")
	}
	sample := &deg.Samples[0]

	// 2. Start the engine and promote v1. Workers, batching and admission
	// are all defaulted; production knobs are diagnetd's -batch-max,
	// -queue-depth and -workers flags. Batching never waits: the engine
	// fuses whatever is already queued when a worker is free.
	engine := diagnet.NewServingEngine(diagnet.ServingConfig{BatchMax: 16})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		engine.Close(ctx)
	}()
	reg := engine.Registry()
	if err := reg.AddModel("v1", model); err != nil {
		return err
	}
	if err := reg.Promote("v1"); err != nil {
		return err
	}
	fmt.Fprintf(out, "serving version %q\n", reg.Active())

	// 3. Hammer the engine from concurrent clients while version v2 (same
	// weights plus a specialized model for the probed service) is promoted
	// mid-stream. Every result names the exact version that produced it.
	if err := reg.AddModel("v2", model); err != nil {
		return err
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		byVer  = map[string]int{}
		failed int
	)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := engine.SubmitWait(context.Background(), &diagnet.ServingRequest{
					ServiceID: sample.Service,
					Layout:    test.Layout,
					Features:  sample.Features,
				})
				mu.Lock()
				if err != nil {
					failed++
				} else {
					byVer[res.Version]++
				}
				mu.Unlock()
			}
		}()
	}
	time.Sleep(2 * time.Millisecond) // let some v1 traffic through first
	if err := reg.Promote("v2"); err != nil {
		return err
	}
	if err := reg.SetSpecialized(sample.Service, model); err != nil {
		return err
	}
	wg.Wait()
	fmt.Fprintf(out, "hot swap under load: %d failed, served by version: %v\n", failed, byVer)

	// 4. Roll back: v1 serves again, with zero downtime.
	prev, err := reg.Rollback()
	if err != nil {
		return err
	}
	res, err := engine.SubmitWait(context.Background(), &diagnet.ServingRequest{
		ServiceID: sample.Service,
		Layout:    test.Layout,
		Features:  sample.Features,
	})
	if err != nil {
		return err
	}
	top := test.Layout.FeatureName(res.Diagnosis.Ranked()[0])
	fmt.Fprintf(out, "rolled back to %q; top cause now: %s\n", prev, top)
	fmt.Fprintf(out, "engine stats: %+v\n", engine.Stats())
	return nil
}
