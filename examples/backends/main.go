// Backends: the heterogeneous serving pool end to end — compile a compact
// network, stand up the micro-batching server over a sequence of backend
// mixes (simulated DPU, host INT8 CPU, simulated GPU, and combinations),
// push a closed-loop burst through each pool, and print the Pareto
// frontier table: fleet throughput (summed simulated FPS across the pool's
// backends) against energy efficiency (fleet FPS per fleet watt). The
// DPU-only mixes dominate on FPS/W, the GPU mixes buy raw FPS at a steep
// energy price — the paper's Table 5 trade-off, reproduced at pool level.
//
//	go run ./examples/backends
//
// Runtime: a few seconds on a laptop CPU.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"seneca"
	"seneca/internal/hostmain"
	"seneca/internal/tensor"
	"seneca/internal/xmodel"
)

func main() {
	log.SetFlags(0)

	// A compact shape-only-quantized U-Net: the serving path is identical
	// to a trained model's, the weights just aren't meaningful.
	prog, err := hostmain.DemoProgram(64)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	imgs := make([]*tensor.Tensor, 8)
	for i := range imgs {
		img := tensor.New(1, 64, 64)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 0.3)
		}
		imgs[i] = img
	}

	mixes := []string{
		"dpu-sim",
		"dpu-sim:2",
		"cpu-int8",
		"gpu-sim",
		"dpu-sim:2,cpu-int8",
		"dpu-sim:2,gpu-sim",
		"dpu-sim:2,cpu-int8,gpu-sim",
	}

	fmt.Println("Backend-mix Pareto sweep (closed-loop, 256 requests per mix)")
	fmt.Println()
	fmt.Printf("  %-28s %10s %10s %10s\n", "backends", "fleet FPS", "fleet W", "FPS/W")
	fmt.Printf("  %-28s %10s %10s %10s\n", "----------------------------", "---------", "-------", "------")
	for _, mix := range mixes {
		fps, watts := runMix(prog, mix, imgs)
		ee := 0.0
		if watts > 0 {
			ee = fps / watts
		}
		fmt.Printf("  %-28s %10.1f %10.2f %10.2f\n", mix, fps, watts, ee)
	}
	fmt.Println()
	fmt.Println("Fleet FPS and watts are sums of each backend's simulated deployment")
	fmt.Println("estimate for the traffic it served; FPS/W is their ratio.")
}

// runMix serves one closed-loop burst through a pool built from the given
// spec and returns the fleet throughput and power: per-backend simulated
// FPS and watts summed across the pool's kinds.
func runMix(prog *xmodel.Program, mix string, imgs []*tensor.Tensor) (fps, watts float64) {
	// SimPace 1 replays each backend's simulated board time in real time,
	// so a saturated kind actually holds its dispatch lanes and the router
	// spills overflow onto the other kinds — without it the host CPU burns
	// through batches faster than any modelled device and the pool never
	// fills.
	srv, err := seneca.NewServer(seneca.NewZCU104(), prog, seneca.ServeConfig{
		Backends:   mix,
		Threads:    4,
		MaxBatch:   8,
		QueueDepth: 256,
		SimPace:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	const clients, perClient = 32, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if _, err := srv.Submit(context.Background(), imgs[(c+k)%len(imgs)]); err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()

	// Sum each kind's deployment estimate once (workers of the same kind
	// each carry their own accumulator rows).
	perKind := map[string][2]float64{}
	for _, bs := range srv.Stats().Backends {
		agg := perKind[bs.Backend]
		agg[0] += bs.SimFPS
		agg[1] += bs.SimWatts
		perKind[bs.Backend] = agg
	}
	for _, agg := range perKind {
		fps += agg[0]
		watts += agg[1]
	}
	return fps, watts
}
