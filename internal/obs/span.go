package obs

import (
	"sync/atomic"
	"time"
)

// StageBuckets are the duration buckets (seconds) for pipeline stage
// spans: stages range from sub-millisecond simulation passes to
// multi-minute training runs.
var StageBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300, 1800,
}

// Span is one in-flight timed stage. Obtain with StartSpan, finish with
// End; a Span must not be reused after End.
type Span struct {
	*stageSeries
	start time.Time
	done  atomic.Bool
}

// stageSeries is one stage's three series, resolved once per registry.
type stageSeries struct {
	hist *Histogram
	runs *Counter
	busy *Gauge
}

// StartSpan begins timing one run of a named pipeline stage. Each stage
// contributes three series to the registry:
//
//	seneca_stage_duration_seconds{stage="..."}  histogram of run durations
//	seneca_stage_runs_total{stage="..."}        completed-run counter
//	seneca_stage_busy_seconds_total{stage="..."} accumulated busy time
//
// so a single scrape breaks a full pipeline run down into its
// train/calibrate/quantize/compile/simulate stages. The first span of a stage
// registers them; every later one finds them in the registry's stage map,
// so timing a hot path costs a map load and three atomic updates.
func (r *Registry) StartSpan(stage string) *Span {
	ss, ok := r.stages.Load(stage)
	if !ok {
		l := L("stage", stage)
		ss, _ = r.stages.LoadOrStore(stage, &stageSeries{
			hist: r.Histogram("seneca_stage_duration_seconds", "Pipeline stage run duration.", StageBuckets, l),
			runs: r.Counter("seneca_stage_runs_total", "Completed pipeline stage runs.", l),
			busy: r.Gauge("seneca_stage_busy_seconds_total", "Accumulated busy time per pipeline stage.", l),
		})
	}
	return &Span{stageSeries: ss.(*stageSeries), start: time.Now()}
}

// End finishes the span and returns its duration. End is idempotent:
// deferred and explicit calls may coexist, only the first records.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.done.Swap(true) {
		return d
	}
	sec := d.Seconds()
	s.hist.Observe(sec)
	s.runs.Inc()
	s.busy.Add(sec)
	return d
}

// Time runs one stage under a span on the Default registry:
//
//	defer obs.Time("quant.calibrate")()
func Time(stage string) func() time.Duration {
	sp := Default.StartSpan(stage)
	return sp.End
}
