// Command benchmark is the repository's benchmark: it builds the shipped
// server binaries from the working tree, drives one as a child process per
// workload over loopback HTTP, verifies every mask byte for byte, and prints
// the metrics BENCHMARK.json names. See README.md in this directory. It runs
// from the root of a checkout:
//
//	bash benchmark/run.sh --workload slice_kernel --seed 1 --seconds 20 --trace 0
//
// -trace 0 prints the end-to-end metrics of an untraced run; -trace 1 walks
// the layers in-process, repeats the load with spans recorded, and prints
// the per-layer metrics. Without -workload every workload runs both ways.
// The last line of standard output is one JSON object per run; everything
// else goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// result is the one JSON object a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

func main() {
	name := flag.String("workload", "", "workload to run (empty: all of them, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed for input noise, encoding rotation, arrival schedule and phantom volume")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: layer walk and traced run, per-layer metrics")
	corrupt := flag.Bool("corrupt-reference", false, "test hook: flip one byte of the reference mask, so the run must fail")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}

	type pass struct {
		wl     *workload
		traced bool
	}
	var passes []pass
	if *name == "" {
		for _, wl := range workloads {
			passes = append(passes, pass{wl, false}, pass{wl, true})
		}
	} else {
		wl := workloadByName(*name)
		if wl == nil {
			logf("benchmark: unknown workload %q", *name)
			os.Exit(2)
		}
		passes = []pass{{wl, *trace == 1}}
	}

	ok := true
	for _, p := range passes {
		opt := options{seed: *seed, seconds: *seconds, traced: p.traced, corrupt: *corrupt}
		res, err := run(p.wl, opt)
		if err != nil && !errors.Is(err, errWrongOutput) {
			// The harness failed to run — a server that did not start or stop,
			// a port taken between its choice and its use — which is not a
			// wrong output: a wrong output is never retried. One more attempt
			// keeps a stray accident from costing the run; a fault that
			// persists still fails it.
			logf("benchmark: %s: %v\nbenchmark: %s: that attempt is discarded; trying once more", p.wl.name, err, p.wl.name)
			res, err = run(p.wl, opt)
		}
		if err != nil {
			logf("benchmark: %s: %v", p.wl.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			logf("benchmark: %v", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// scratchDir makes the per-run scratch directory under buildDir.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
