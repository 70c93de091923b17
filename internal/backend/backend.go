// Package backend defines the heterogeneous execution substrate of the
// SENECA serving tier. The paper pushes one U-Net to radically different
// devices — the related aerial-U-Net work compares CPU, GPU and FPGA
// workflows head to head — and this package makes those substrates
// interchangeable behind one interface so a single serve pool can run all
// of them concurrently and route each micro-batch by a cost model.
//
// A built-in backend is the INT8 frame plus a price:
//
//   - functional: every kind executes the compiled program bit-accurately
//     through the INT8 kernels of internal/quant, so a request's mask does
//     not depend on which device the router picked (the cross-backend
//     conformance suite pins this, with a documented per-backend tolerance
//     table for future approximate executors);
//   - temporal: each kind prices a run of frames with its own first-order
//     device model — the VART discrete-event simulation over the DPU for
//     "dpu-sim", a steady run of the instruction-stream roofline frame at
//     constant watts for "cpu-int8" (INT8 edge CPU) and "gpu-sim"
//     (internal/gpusim's FP32 GPU). Execute charges a batch that price at its
//     seed, and Cost is the same price at seed 0, so the router's prediction
//     is exactly the report an unjittered batch is charged.
//
// One type serves the three built-in kinds, which register themselves at
// init. New executors join by calling Register; the conformance suite
// iterates Kinds and refuses executors without a tolerance entry.
//
// Every Execute consults the chaos seams "backend.execute" and
// "backend.execute.<kind>" (internal/fault), so resilience tests can kill
// one substrate mid-burst and assert the pool fails over losslessly.
package backend

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/energy"
	"seneca/internal/fault"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/xmodel"
)

// Cost is a backend's predicted price for one micro-batch: how long the
// device would take and how much energy it would burn. The router compares
// these against its latency SLO and energy budget before placing work.
type Cost struct {
	// Latency is the predicted wall time for the whole batch on the device.
	Latency time.Duration
	// Joules is the predicted energy for the whole batch.
	Joules float64
}

// JoulesPerFrame normalizes the energy prediction to one frame, the unit
// the router's energy budget is expressed in.
func (c Cost) JoulesPerFrame(frames int) float64 {
	if frames < 1 {
		frames = 1
	}
	return c.Joules / float64(frames)
}

// Backend is one execution substrate for a compiled program. Execute is the
// functional half (bit-accurate masks, safe for concurrent batches); Cost is
// the temporal half (a pure prediction — it must not touch the device state
// and must be safe to call while Execute runs); Health is a cheap self-check
// the router consults next to the serving tier's circuit breakers.
type Backend interface {
	// Name returns the backend kind, e.g. "dpu-sim".
	Name() string
	// Execute runs one micro-batch functionally and returns the per-frame
	// masks in input order plus the simulated throughput/energy report for
	// the batch. seed perturbs measurement jitter (0 = deterministic).
	Execute(imgs []*tensor.Tensor, seed int64) ([][]uint8, energy.Report, error)
	// Cost predicts latency and energy for a batch of the given size.
	Cost(frames int) Cost
	// Health reports whether the backend can serve (nil = healthy). It is a
	// configuration self-check, not a breaker: trip state lives in the pool.
	Health() error
}

// Options tunes backend construction. The zero value is usable.
type Options struct {
	// Threads is the host submission thread count: a batch's frames fan
	// across at most this many workers, and dpu-sim's runtime model
	// schedules that many submission threads. Default 4.
	Threads int
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	return o
}

// Factory builds one backend instance over a device and compiled program.
type Factory func(dev *dpu.Device, prog *xmodel.Program, opt Options) (Backend, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a backend kind. Registering an empty name or a
// duplicate kind is a wiring bug and panics.
func Register(kind string, f Factory) {
	if kind == "" || f == nil {
		panic("backend: Register needs a kind and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("backend: kind %q registered twice", kind))
	}
	registry[kind] = f
}

// Kinds returns the registered backend kinds, sorted. The conformance
// suite iterates this list, so a newly registered executor is gated the
// moment it exists.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	kinds := make([]string, 0, len(registry))
	for k := range registry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// New builds one backend of the given kind.
func New(kind string, dev *dpu.Device, prog *xmodel.Program, opt Options) (Backend, error) {
	regMu.RLock()
	f := registry[kind]
	regMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("backend: unknown kind %q (registered: %s)", kind, strings.Join(Kinds(), ", "))
	}
	if prog == nil {
		return nil, fmt.Errorf("backend: %s: nil program", kind)
	}
	return f(dev, prog, opt.withDefaults())
}

// MaxPoolSlots bounds how many slots one pool spec may expand to. Each slot
// is a backend with its own executors and arenas plus a dispatch goroutine,
// and a runner past a few per core only contends for them; the bound is far
// above any pool a host could use, and it is checked before a slot is
// expanded, so "dpu-sim:2000000000" is an error instead of two billion
// strings.
const MaxPoolSlots = 1024

// ParseSpec expands a pool specification — a comma-separated list of
// "kind" or "kind:count" entries, e.g. "dpu-sim:2,cpu-int8,gpu-sim" — into
// one kind per pool slot. Kinds are validated against the registry, and the
// whole pool may hold at most MaxPoolSlots slots.
func ParseSpec(spec string) ([]string, error) {
	var kinds []string
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, countStr, hasCount := strings.Cut(entry, ":")
		kind = strings.TrimSpace(kind)
		count := 1
		if hasCount {
			var err error
			count, err = strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || count < 1 {
				return nil, fmt.Errorf("backend: bad count in spec entry %q", entry)
			}
		}
		regMu.RLock()
		_, known := registry[kind]
		regMu.RUnlock()
		if !known {
			return nil, fmt.Errorf("backend: unknown kind %q in spec (registered: %s)", kind, strings.Join(Kinds(), ", "))
		}
		if count > MaxPoolSlots-len(kinds) {
			return nil, fmt.Errorf("backend: pool spec %q holds more than %d slots", spec, MaxPoolSlots)
		}
		for i := 0; i < count; i++ {
			kinds = append(kinds, kind)
		}
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("backend: empty pool spec %q", spec)
	}
	return kinds, nil
}

// priced is the one Backend of every built-in kind: the program's INT8 frame,
// fanned across host workers, plus the kind's price for a run of frames.
// Execute charges a batch price(len(imgs), seed); Cost is price(n, 0). It
// holds nothing a batch mutates, so Execute and Cost are safe to call
// concurrently, on one backend or many.
type priced struct {
	kind    string
	graph   *quant.QGraph
	threads int
	price   func(frames int, seed int64) (energy.Report, error)
}

func (b *priced) Name() string { return b.kind }

// Health always passes: a built-in kind's configuration is fixed when it is
// built, so there is nothing left to go wrong that the breaker does not see.
func (b *priced) Health() error { return nil }

// Execute consults the generic and the per-kind chaos seam, runs every frame
// bit-accurately through the quantized graph on up to threads host workers
// (quant.ForFrames; masks in input order), and prices the batch. The frame
// workers are not drawn from internal/par's worker budget, so each frame's
// layer loops may still borrow par's spare workers: a batch can run up to
// par.MaxWorkers-1 goroutines beyond its frame workers (masks do not depend
// on it; DESIGN.md §4.8 has what it costs). Unprogrammed seams cost one atomic
// load.
func (b *priced) Execute(imgs []*tensor.Tensor, seed int64) ([][]uint8, energy.Report, error) {
	if err := fault.Check("backend.execute"); err != nil {
		return nil, energy.Report{}, err
	}
	if err := fault.Check("backend.execute." + b.kind); err != nil {
		return nil, energy.Report{}, err
	}
	masks := make([][]uint8, len(imgs))
	err := quant.ForFrames(len(imgs), b.threads, func(i int) (err error) {
		masks[i], err = b.graph.ExecuteLabels(imgs[i])
		return err
	})
	if err != nil {
		return nil, energy.Report{}, fmt.Errorf("backend: %w", err)
	}
	rep, err := b.price(len(imgs), seed)
	if err != nil {
		return nil, energy.Report{}, err
	}
	return masks, rep, nil
}

// Cost is the report Execute would charge a batch of that many frames (at
// least one) at seed 0.
func (b *priced) Cost(frames int) Cost {
	rep, err := b.price(max(frames, 1), 0)
	if err != nil {
		return Cost{}
	}
	return Cost{Latency: rep.Duration, Joules: rep.Joules}
}
