package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported (choosing-metrics §1: "the highest percentile that has at least
// ten samples beyond it").
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// window is one measured slice of a run: what the load did in it, and how
// contended the sentinel found the host meanwhile.
type window struct {
	index  int
	traced bool
	// score is the mean sentinel reading taken while the window ran, in ms:
	// how contended the host was during it. slow is score ÷ the run's
	// fastest reading: how much slower than their best the cores ran.
	score float64
	slow  float64

	wall   time.Duration // window start → last completion
	cpu    time.Duration // child user+sys CPU over the window
	ops    int           // verified operations (masks, or slices of a volume)
	sent   int           // requests attempted
	failed int           // non-200 + transport errors + wrong masks
	wrong  int           // wrong masks alone (a correctness failure, not a refusal)

	latMS []float64 // client-observed latency of each verified request
	lagMS []float64 // open loop: how late each send ran against its due time
}

// opsPerS is the window's raw throughput.
func (w *window) opsPerS() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.ops) / w.wall.Seconds()
}

// cpuMSPerOp is the child's raw CPU time per verified op.
func (w *window) cpuMSPerOp() float64 {
	if w.ops == 0 {
		return 0
	}
	return float64(w.cpu) / float64(time.Millisecond) / float64(w.ops)
}

// wallSlowdown is how much longer a wall-clock duration ran on a host that
// ran the sentinel slow times slower, when only cpuShare of that duration was
// the server computing: timers and waits are not lengthened by a slow core.
func wallSlowdown(slow, cpuShare float64) float64 {
	return 1 + cpuShare*(slow-1)
}

// atFullSpeed returns a copy of w with the host's slowdown taken out. CPU
// time is divided by slow; wall-clock durations (the latencies and, in a
// closed loop, whose rate the cores set, the wall time) by wallSlowdown. An
// open loop's rate is set by its schedule, so its wall time stands.
func (w *window) atFullSpeed(closedLoop bool, cpuShare float64) *window {
	c := *w
	c.cpu = time.Duration(float64(w.cpu) / w.slow)
	wall := wallSlowdown(w.slow, cpuShare)
	if closedLoop {
		c.wall = time.Duration(float64(w.wall) / wall)
	}
	c.latMS = make([]float64, len(w.latMS))
	for i, l := range w.latMS {
		c.latMS[i] = l / wall
	}
	return &c
}

// byQuiet orders windows from quietest to most contended by sentinel score
// alone (index breaks ties), never by what the load achieved in them, so
// the choice of windows cannot favour a good or a bad outcome.
func byQuiet(ws []*window) []*window {
	out := append([]*window(nil), ws...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score < out[j].score
		}
		return out[i].index < out[j].index
	})
	return out
}

// quietestHalf returns the ⌈n/2⌉ windows with the lowest sentinel score.
func quietestHalf(ws []*window) []*window {
	return byQuiet(ws)[:(len(ws)+1)/2]
}

// poolLatencies pools the latency samples of the quietest half of ws; when
// those hold fewer than need samples, the next-quietest windows are added
// in score order until they do (or the run is exhausted).
func poolLatencies(ws []*window, need int) []float64 {
	ordered := byQuiet(ws)
	half := (len(ws) + 1) / 2
	var pool []float64
	for i, w := range ordered {
		if i >= half && len(pool) >= need {
			break
		}
		pool = append(pool, w.latMS...)
	}
	sort.Float64s(pool)
	return pool
}

// arrival is one open-loop request: when it is due, counted from the start
// of its window, and which input it carries.
type arrival struct {
	due   time.Duration
	input int
}

// poissonSchedule draws an open-loop schedule from the seed: each window
// holds exactly round(rate·length) arrivals at independent uniform offsets,
// which is a Poisson process conditioned on its count. Fixing the count
// keeps the offered load identical across seeds, so a run-to-run difference
// is the system's and not the schedule's.
func poissonSchedule(seed int64, windows int, length time.Duration, rate float64, inputs int) [][]arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * length.Seconds()))
	out := make([][]arrival, windows)
	for w := range out {
		as := make([]arrival, n)
		for i := range as {
			as[i] = arrival{due: time.Duration(rng.Int63n(int64(length))), input: rng.Intn(inputs)}
		}
		sort.Slice(as, func(i, j int) bool { return as[i].due < as[j].due })
		out[w] = as
	}
	return out
}
