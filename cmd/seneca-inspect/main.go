// Command seneca-inspect disassembles a compiled xmodel: graph summary,
// instruction stream with workload descriptors, per-instruction timing on
// the ZCU104 DPU model, and optionally a Chrome-tracing JSON of the
// runtime schedule (open in chrome://tracing or Perfetto).
//
// Usage:
//
//	seneca-inspect -xmodel 1m.xmodel
//	seneca-inspect -xmodel 1m.xmodel -trace run.trace.json -frames 64
//	seneca-inspect -xmodel 1m.xmodel -profile 200
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/par"
	"seneca/internal/quant"
	"seneca/internal/tensor"
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
	profileFrames := flag.Int("profile", 0, "time the host INT8 executor node by node over this many frames on one core")
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

	if *profileFrames > 0 {
		if err := profile(prog, *profileFrames); err != nil {
			log.Fatal(err)
		}
	}

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

// profile runs the host executor on one core over seeded noise, timing every
// node of every frame and the argmax that makes its mask from outside
// (quant.Executor.Steps — the serving path carries no timer), and prints per
// pass the median time, its multiply-adds and the rate they ran at, the
// bytes it stored (into the arena; the argmax's, its mask) and its share of
// the frame (the sum of the medians).
func profile(prog *xmodel.Program, frames int) error {
	g := prog.Graph
	ex, err := quant.NewExecutor(g)
	if err != nil {
		return err
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(1))
	img := tensor.New(g.InC, g.InH, g.InW)
	for i := range img.Data {
		img.Data[i] = float32(rng.NormFloat64() * 0.3)
	}
	macs := make(map[string]int64, len(prog.Instructions))
	for _, in := range prog.Instructions {
		macs[in.Node] += in.MACs
	}
	var steps []quant.Step
	// The nodes, then the argmax.
	samples := make([][]time.Duration, len(g.Nodes)+1)
	for f := -1; f < frames; f++ { // frame −1 warms the caches and packs the weights
		i := 0
		_, err := ex.Steps(img, func(s quant.Step, run func()) {
			start := time.Now()
			run()
			if d := time.Since(start); f >= 0 {
				samples[i] = append(samples[i], d)
			} else {
				steps = append(steps, s)
			}
			i++
		})
		if err != nil {
			return err
		}
	}
	medians := make([]time.Duration, len(steps))
	var frame time.Duration
	for i, s := range samples[:len(steps)] {
		slices.Sort(s)
		medians[i] = s[len(s)/2]
		frame += medians[i]
	}
	fmt.Printf("\nhost executor, one core, median of %d frames (%s body)\n", frames, quant.KernelISA())
	fmt.Printf("%-22s %-14s %10s %11s %8s %10s %6s\n", "pass", "kind", "ns", "MACs", "GMAC/s", "stored B", "share")
	var totalMACs int64
	var totalStored int
	for i, s := range steps {
		name, kind := s.Name, "labels"
		if len(name) > 22 {
			name = name[:22]
		}
		if s.Node != nil {
			kind = s.Node.Kind.String()
		}
		rate := "-"
		if m := macs[s.Name]; m > 0 && medians[i] > 0 {
			rate = fmt.Sprintf("%.1f", float64(m)/float64(medians[i].Nanoseconds()))
		}
		totalMACs += macs[s.Name]
		totalStored += s.StoredBytes
		fmt.Printf("%-22s %-14s %10d %11d %8s %10d %5.1f%%\n", name, kind, medians[i].Nanoseconds(),
			macs[s.Name], rate, s.StoredBytes, 100*float64(medians[i])/float64(frame))
	}
	fmt.Printf("%-22s %-14s %10d %11d %8.1f %10d\n", "frame", "", frame.Nanoseconds(), totalMACs,
		float64(totalMACs)/float64(frame.Nanoseconds()), totalStored)
	return nil
}
