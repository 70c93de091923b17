package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/obs"
)

// BrownoutConfig programs the VariantFront's quality-degradation feedback
// loop: under overload, traffic that would be served by Ladder[0] shifts
// down a ladder of cheaper variants *before* any request is shed —
// degrading bits, not availability, exactly the trade the mixed-precision
// search quantified. The controller watches the active rung's queue
// occupancy and its recent p99 (a windowed read of the latency histogram),
// with hysteresis on both edges so the level doesn't flap.
type BrownoutConfig struct {
	// Ladder is the degradation sequence, most accurate first. Requests
	// that resolve to Ladder[0] (by tier or default — explicit
	// X-Seneca-Variant pins are exempt) are served by the rung the
	// controller currently selects. At least two rungs make a useful
	// ladder; every rung must be a registered variant.
	Ladder []string
	// HighWaterFrac degrades one rung when the active rung's queue
	// occupancy reaches this fraction of capacity. Default 0.75.
	HighWaterFrac float64
	// LowWaterFrac is the recovery edge: stepping back up requires
	// occupancy at or below this fraction (and the p99 condition) to hold
	// for RecoverDwell. The gap to HighWaterFrac is the hysteresis band.
	// Default 0.25.
	LowWaterFrac float64
	// P99Target degrades when the p99 of requests completed since the last
	// evaluation exceeds it. 0 disables the latency edge (occupancy only).
	P99Target time.Duration
	// EvalInterval is the controller period. Default 100ms.
	EvalInterval time.Duration
	// DegradeDwell is the minimum time between consecutive degradations,
	// so one burst walks down the ladder at a bounded rate. Default
	// EvalInterval.
	DegradeDwell time.Duration
	// RecoverDwell is how long conditions must stay calm before the
	// controller recovers one rung. Default 5×EvalInterval.
	RecoverDwell time.Duration
}

func (bc BrownoutConfig) withDefaults() BrownoutConfig {
	if bc.HighWaterFrac <= 0 {
		bc.HighWaterFrac = 0.75
	}
	if bc.LowWaterFrac <= 0 {
		bc.LowWaterFrac = 0.25
	}
	if bc.EvalInterval <= 0 {
		bc.EvalInterval = 100 * time.Millisecond
	}
	if bc.DegradeDwell <= 0 {
		bc.DegradeDwell = bc.EvalInterval
	}
	if bc.RecoverDwell <= 0 {
		bc.RecoverDwell = 5 * bc.EvalInterval
	}
	return bc
}

func (bc BrownoutConfig) validate(vp VariantProvider) error {
	if len(bc.Ladder) == 0 {
		return errors.New("serve: brownout ladder is empty")
	}
	seen := make(map[string]bool, len(bc.Ladder))
	for _, name := range bc.Ladder {
		if vp.Program(name) == nil {
			return fmt.Errorf("serve: brownout ladder rung %q not registered", name)
		}
		if seen[name] {
			return fmt.Errorf("serve: brownout ladder repeats rung %q", name)
		}
		seen[name] = true
	}
	if bc.LowWaterFrac > 0 && bc.HighWaterFrac > 0 && bc.LowWaterFrac >= bc.HighWaterFrac {
		return fmt.Errorf("serve: brownout low water %.2f must sit below high water %.2f",
			bc.LowWaterFrac, bc.HighWaterFrac)
	}
	return nil
}

// brownout is the running controller: a goroutine owning the level, read
// by the serving path with one atomic load.
type brownout struct {
	cfg   BrownoutConfig
	front *VariantFront
	level atomic.Int32

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mDegrade *obs.Counter
	mRecover *obs.Counter
}

func newBrownout(f *VariantFront, cfg BrownoutConfig) *brownout {
	b := &brownout{
		cfg:   cfg,
		front: f,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		mDegrade: f.reg.Counter("seneca_serve_brownout_shifts_total",
			"Brownout ladder shifts, by direction.", obs.L("direction", "degrade")),
		mRecover: f.reg.Counter("seneca_serve_brownout_shifts_total",
			"Brownout ladder shifts, by direction.", obs.L("direction", "recover")),
	}
	f.reg.GaugeFunc("seneca_serve_brownout_level",
		"Current rung of the brownout degradation ladder (0 = full quality).",
		func() float64 { return float64(b.level.Load()) })
	go b.run()
	return b
}

func (b *brownout) close() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
}

// run is the feedback loop. Each tick it reads the active rung's queue
// occupancy and the p99 of requests that completed since the previous tick
// (a histogram snapshot delta, so an idle window reads 0 rather than a
// stale tail), then applies the hysteresis rules.
func (b *brownout) run() {
	defer close(b.done)
	prev := make([]obs.HistogramSnapshot, len(b.cfg.Ladder))
	for i, name := range b.cfg.Ladder {
		prev[i] = b.front.servers[name].mLatency.Snapshot()
	}
	now := time.Now()
	lastShift, calmSince := now, now
	t := time.NewTicker(b.cfg.EvalInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
		}
		lvl := int(b.level.Load())
		srv := b.front.servers[b.cfg.Ladder[lvl]]
		occ := float64(srv.QueueDepth()) / float64(srv.QueueCap())
		var p99 time.Duration
		for i, name := range b.cfg.Ladder {
			snap := b.front.servers[name].mLatency.Snapshot()
			if i == lvl {
				p99 = time.Duration(snap.DeltaQuantiles(prev[i], 0.99)[0] * float64(time.Second))
			}
			prev[i] = snap
		}
		hot := occ >= b.cfg.HighWaterFrac ||
			(b.cfg.P99Target > 0 && p99 > b.cfg.P99Target)
		calm := occ <= b.cfg.LowWaterFrac &&
			(b.cfg.P99Target == 0 || p99 < b.cfg.P99Target)
		now := time.Now()
		if !calm {
			calmSince = now
		}
		switch {
		case hot && lvl < len(b.cfg.Ladder)-1 && now.Sub(lastShift) >= b.cfg.DegradeDwell:
			b.level.Store(int32(lvl + 1))
			b.mDegrade.Inc()
			lastShift, calmSince = now, now
		case calm && lvl > 0 && now.Sub(calmSince) >= b.cfg.RecoverDwell:
			b.level.Store(int32(lvl - 1))
			b.mRecover.Inc()
			lastShift, calmSince = now, now
		}
	}
}

// BrownoutLevel returns the current ladder rung (0 = full quality, and 0
// with no brownout configured).
func (f *VariantFront) BrownoutLevel() int {
	if f.brown == nil {
		return 0
	}
	return int(f.brown.level.Load())
}

// served maps the nominally resolved variant to the one actually serving:
// under brownout, traffic bound for Ladder[0] rides the controller's
// current rung. Explicit variant pins bypass the ladder — a client that
// named its variant gets exactly that variant or an error.
func (f *VariantFront) served(nominal string, pinned bool) string {
	if f.brown == nil || pinned || nominal != f.brown.cfg.Ladder[0] {
		return nominal
	}
	return f.brown.cfg.Ladder[f.brown.level.Load()]
}
