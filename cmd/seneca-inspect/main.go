// Command seneca-inspect disassembles a compiled xmodel: graph summary,
// instruction stream with workload descriptors, per-instruction timing on
// the ZCU104 DPU model, and optionally a Chrome-tracing JSON of the
// runtime schedule (open in chrome://tracing or Perfetto).
//
// Usage:
//
//	seneca-inspect -xmodel 1m.xmodel
//	seneca-inspect -xmodel 1m.xmodel -trace run.trace.json -frames 64
package main

import (
	"flag"
	"fmt"
	"log"

	"seneca/internal/dpu"
	"seneca/internal/quant"
	"seneca/internal/vart"
	"seneca/internal/xmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seneca-inspect: ")

	path := flag.String("xmodel", "seneca.xmodel", "compiled xmodel file")
	tracePath := flag.String("trace", "", "write a Chrome-tracing JSON of the runtime schedule")
	frames := flag.Int("frames", 32, "frames for the trace")
	threads := flag.Int("threads", 4, "runtime threads for the trace")
	flag.Parse()

	prog, err := xmodel.ReadFile(*path)
	if err != nil {
		log.Fatal(err)
	}
	g := prog.Graph
	fmt.Printf("xmodel %q\n", prog.Name)
	fmt.Printf("  input: %d×%d×%d, scale 2^%d\n", g.InC, g.InH, g.InW, g.InputFP)
	fmt.Printf("  classes: %d, nodes: %d\n", g.NumClasses, len(g.Nodes))
	s := prog.Stats()
	fmt.Printf("  workload: %.1f MMACs, %.2f MiB weights, %.2f MiB feature maps\n",
		float64(s.MACs)/1e6, float64(s.WeightBytes)/(1<<20), float64(s.FeatureMapBytes)/(1<<20))
	fmt.Printf("  host INT8 kernels: %s body\n\n", quant.KernelISA())

	dev := dpu.New(dpu.ZCU104B4096())
	fmt.Printf("%-4s %-7s %-22s %10s %9s %9s %9s %7s %6s\n",
		"#", "op", "node", "MACs", "w bytes", "io bytes", "cycles", "µs", "util")
	var totalCycles int64
	for i, in := range prog.Instructions {
		tm := dev.TimeInstruction(in)
		totalCycles += tm.Cycles
		name := in.Node
		if len(name) > 22 {
			name = name[:22]
		}
		relu := ""
		if in.FusedReLU {
			relu = "+relu"
		}
		fmt.Printf("%-4d %-7s %-22s %10d %9d %9d %9d %7.0f %5.1f%% %s\n",
			i, in.Op, name, in.MACs, in.WeightBytes, in.InBytes+in.OutBytes,
			tm.Cycles, float64(tm.Cycles)/dev.Cfg.ClockHz*1e6, tm.Utilization*100, relu)
	}
	ft := dev.TimeFrame(prog)
	fmt.Printf("\nframe: %d cycles = %v/core (%.1f FPS dual-core), mean utilization %.1f%%\n",
		totalCycles, ft.Latency, 2/ft.Latency.Seconds(), ft.Utilization*100)

	if *tracePath != "" {
		runner := vart.New(dev, prog, *threads)
		tr, err := runner.Trace(*frames, 1)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteFile(*tracePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schedule trace (%d frames, %d threads): %s — %s\n",
			*frames, *threads, *tracePath, tr.Result.Report)
	}
}
