// Chaos: the self-healing serving tier under fault injection. Stands up
// the micro-batching inference server in-process, runs one closed-loop
// load phase fault-free and one with ~10% of batches failing or stalling
// (seeded, via the internal/fault registry), and prints throughput, error
// counts and the recovery trace (breaker trips, evictions, redispatches)
// side by side. Every response in both phases is checked bit-for-bit
// against the program's own INT8 execution — injected faults must cost
// throughput, never correctness.
//
//	go run ./examples/chaos
//
// Runtime: a few seconds on a laptop CPU.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"seneca"
	"seneca/internal/hostmain"
	"seneca/internal/tensor"
)

const (
	clients   = 8
	perClient = 40
)

func main() {
	log.SetFlags(0)

	prog, err := hostmain.DemoProgram(64)
	if err != nil {
		log.Fatal(err)
	}
	dev := seneca.NewZCU104()

	// A small working set of inputs with fault-free goldens.
	rng := rand.New(rand.NewSource(7))
	imgs := make([]*tensor.Tensor, 8)
	goldens := make([][]uint8, len(imgs))
	for i := range imgs {
		img := tensor.New(1, 64, 64)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 0.3)
		}
		imgs[i] = img
		if goldens[i], err = prog.Run(img); err != nil {
			log.Fatal(err)
		}
	}

	phase := func(name string) {
		srv, err := seneca.NewServer(dev, prog, seneca.ServeConfig{
			Runners:          2,
			Threads:          4,
			MaxBatch:         8,
			MaxDelay:         2 * time.Millisecond,
			QueueDepth:       256,
			BreakerThreshold: 2,
			BreakerCooldown:  50 * time.Millisecond,
			WatchdogTimeout:  2 * time.Second,
			MaxRedispatch:    16,
		})
		if err != nil {
			log.Fatal(err)
		}
		var failed, wrong atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					idx := (c*perClient + k) % len(imgs)
					mask, err := srv.Submit(context.Background(), imgs[idx])
					if err != nil {
						failed.Add(1)
						continue
					}
					if !bytes.Equal(mask, goldens[idx]) {
						wrong.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		st := srv.Stats()
		h := srv.Health()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()

		total := clients * perClient
		fmt.Printf("%-12s %6.0f req/s   failed %d/%d   wrong %d   injected %d   evictions %d   probes %d   redispatches %d   watchdog %d   healthy %d/%d\n",
			name,
			float64(total)/elapsed.Seconds(),
			failed.Load(), total, wrong.Load(),
			seneca.FaultsInjected("backend.execute")+seneca.FaultsInjected("backend.execute.dpu-sim"),
			st.Evictions, st.Probes, st.Redispatches, st.WatchdogTimeouts,
			h.Healthy, h.Runners)
	}

	fmt.Printf("chaos: %d clients × %d requests per phase\n\n", clients, perClient)
	phase("baseline")

	// A couple of batches stall past the watchdog and ~10% of dpu-sim
	// batches error; seeded, so the run replays exactly.
	seneca.SeedFaults(42)
	if err := seneca.ApplyFaults("backend.execute,p=1,count=2,delay=8s;backend.execute.dpu-sim,p=0.1"); err != nil {
		log.Fatal(err)
	}
	defer seneca.ResetFaults()
	phase("10% faults")

	fmt.Println("\nEvery response in both phases was bit-identical to the program's own")
	fmt.Println("INT8 execution: faults cost throughput (retries, cooldowns), not accuracy.")
}
