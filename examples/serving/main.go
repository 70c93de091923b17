// Serving: the deployment tier end to end in one process — compile a
// compact network, stand up the micro-batching inference server on a
// loopback listener, sweep offered load through it closed-loop, and print
// the latency/throughput/occupancy table (the serving-side analog of the
// paper's thread-scaling experiment), then drain gracefully.
//
//	go run ./examples/serving
//
// Runtime: a few seconds on a laptop CPU.
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

	// A compact shape-only-quantized U-Net: the serving path is identical
	// to a trained model's, the weights just aren't meaningful.
	prog, err := hostmain.DemoProgram(64)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := seneca.NewServer(seneca.NewZCU104(), prog, seneca.ServeConfig{
		Runners:    2,
		Threads:    4,
		MaxBatch:   8,
		MaxDelay:   2 * time.Millisecond,
		QueueDepth: 64,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %q on %s\n\n", prog.Name, base)

	// One random 64×64 slice, reused by every client.
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, 64*64)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 0.3)
	}
	body := seneca.EncodeServeInput(data)

	points, err := seneca.SweepLoad(base, body, "application/octet-stream",
		[]int{1, 2, 4, 8, 16, 32}, 160)
	if err != nil {
		log.Fatal(err)
	}
	seneca.FormatLoadSweep(os.Stdout, points)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	httpSrv.Shutdown(ctx)

	st := srv.Stats()
	fmt.Printf("\nserved %d requests in %d batches (mean occupancy %.2f), rejected %d\n",
		st.Completed, st.Batches, st.MeanBatch, st.Rejected)
	fmt.Printf("simulated ZCU104 deployment: %.1f FPS at %.2f W → %.2f FPS/W\n",
		st.SimFPS, st.SimWatts, st.SimFPSPerWatt)
	fmt.Println("\nreading the table: batch occupancy grows with offered load while")
	fmt.Println("p99 tracks queue depth; wall throughput is bounded by this host's")
	fmt.Println("CPU running the bit-accurate INT8 kernels — the simulated line above")
	fmt.Println("is what the actual ZCU104 deployment would sustain.")
}
