// Cluster: the scale-out tier under a flash crowd — the same open-loop
// arrival schedule is fired twice, first at a fleet pinned to one node,
// then at a fleet allowed to autoscale, and the tables show what the
// autoscaler buys: goodput held and far less load shed when the crowd
// arrives, at the price of running extra replicas only while it lasts.
//
//	go run ./examples/cluster
//
// Runtime: ~half a minute on a laptop CPU.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"seneca"
	"seneca/internal/hostmain"
)

func main() {
	log.SetFlags(0)

	// A compact shape-only-quantized U-Net; the routing, admission and
	// autoscaling behavior is identical to a trained model's.
	prog, err := hostmain.DemoProgram(32)
	if err != nil {
		log.Fatal(err)
	}

	// One random slice, reused by every arrival.
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, 32*32)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 0.3)
	}
	body := seneca.EncodeServeInput(data)

	// Every replica models one deployed board: own device, runner pool,
	// admission queue. The factory is what the autoscaler calls to add one.
	// SimPace bounds each replica to 20× its simulated board time (≈40
	// masks/s for this model), so a node behaves like a real fixed-speed
	// edge board: adding replicas adds genuine capacity, even on a small
	// host, because paced replicas sleep through most of each batch. The
	// queue is deliberately shallow: a node that cannot keep up sheds
	// within hundreds of milliseconds instead of parking requests for
	// seconds — tail latency stays honest and the overload shows up as
	// shed rate.
	factory := func() (*seneca.InferenceServer, error) {
		return seneca.NewServer(seneca.NewZCU104(), prog, seneca.ServeConfig{
			Runners:    1,
			Threads:    2,
			MaxBatch:   8,
			MaxDelay:   2 * time.Millisecond,
			QueueDepth: 16,
			Seed:       1,
			SimPace:    20,
		})
	}

	openLoop := seneca.OpenLoopConfig{
		Arrival:     "flash",
		Rate:        25,
		Duration:    10 * time.Second,
		FlashFactor: 6,
		Seed:        42,
	}

	run := func(label string, ccfg seneca.ClusterConfig) seneca.OpenLoopReport {
		c, err := seneca.NewCluster(factory, ccfg)
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		httpSrv := &http.Server{Handler: c.Handler()}
		go httpSrv.Serve(ln)

		rep, err := seneca.RunOpenLoop("http://"+ln.Addr().String(), body, "application/octet-stream", openLoop)
		if err != nil {
			log.Fatal(err)
		}
		st := c.Stats()
		fmt.Printf("%s: scale-ups %d, scale-downs %d, interactive shed %d, batch shed %d\n",
			label, st.ScaleUps, st.ScaleDowns, st.Interactive.Shed, st.Batch.Shed)

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			log.Fatal(err)
		}
		httpSrv.Shutdown(ctx)
		return rep
	}

	fmt.Printf("flash crowd: %.0f req/s baseline, ×%.0f for the middle fifth of %s\n\n",
		openLoop.Rate, openLoop.FlashFactor, openLoop.Duration)

	single := run("single node", seneca.ClusterConfig{MinNodes: 1, MaxNodes: 1})
	scaled := run("autoscaled ", seneca.ClusterConfig{
		MinNodes:      1,
		MaxNodes:      4,
		HighWaterFrac: 0.5,
		LowWaterFrac:  0.05,
		SustainWindow: 50 * time.Millisecond,
		ScaleCooldown: 150 * time.Millisecond,
	})

	fmt.Println()
	seneca.FormatOpenLoop(os.Stdout, []seneca.OpenLoopReport{single, scaled})
	fmt.Println()
	fmt.Printf("single node sheds %.1f%% of the crowd; the autoscaled fleet %.1f%%\n",
		100*single.ShedRate, 100*scaled.ShedRate)
}
