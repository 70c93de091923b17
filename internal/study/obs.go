package study

import (
	"time"

	"seneca/internal/obs"
)

// obsHandles are the pre-resolved metric handles the hot paths update
// without touching the registry.
type obsHandles struct {
	reg         *obs.Registry
	mSlices     *obs.Counter
	mJobsDone   *obs.Counter
	mJobsFailed *obs.Counter
	mStageDur   map[Stage]*obs.Histogram
	mRetries    map[Stage]*obs.Counter
	mLoads      map[string]map[string]*obs.Counter // artifact → source
}

// initMetrics wires the service into reg (nil → a private registry):
//
//	seneca_study_jobs{state=...}                     jobs by lifecycle state
//	seneca_study_jobs_total{outcome=done|failed}     terminal outcomes
//	seneca_study_stage_duration_seconds{stage=...}   per-stage histograms
//	seneca_study_stage_retries_total{stage=...}      retried stage attempts
//	seneca_study_slices_total                        slices segmented
//	seneca_study_slices_per_second                   mean slice throughput
//	seneca_study_artifact_loads_total{artifact=input|slices|mask,source=memory|disk}
//	                                                 where a stage found the durable artifact it
//	                                                 consumes: handed over in memory by the stage
//	                                                 before it, or loaded from the blob (a resumed
//	                                                 job, the attempt after a failed one)
func (s *Service) initMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.reg = reg
	for _, state := range States {
		st := state
		reg.GaugeFunc("seneca_study_jobs",
			"Volume jobs by lifecycle state.",
			func() float64 { return float64(s.st.CountState(st)) },
			obs.L("state", string(st)))
	}
	s.mJobsDone = reg.Counter("seneca_study_jobs_total",
		"Volume jobs by terminal outcome.", obs.L("outcome", "done"))
	s.mJobsFailed = reg.Counter("seneca_study_jobs_total",
		"Volume jobs by terminal outcome.", obs.L("outcome", "failed"))
	s.mSlices = reg.Counter("seneca_study_slices_total",
		"CT slices segmented by the volume pipeline.")
	reg.GaugeFunc("seneca_study_slices_per_second",
		"Mean slice throughput of the volume pipeline since service start.",
		func() float64 {
			elapsed := time.Since(s.start).Seconds()
			if elapsed <= 0 {
				return 0
			}
			return float64(s.mSlices.Value()) / elapsed
		})
	s.mStageDur = make(map[Stage]*obs.Histogram, len(stageOrder))
	s.mRetries = make(map[Stage]*obs.Counter, len(stageOrder))
	for _, stage := range stageOrder {
		l := obs.L("stage", string(stage))
		s.mStageDur[stage] = reg.Histogram("seneca_study_stage_duration_seconds",
			"Volume pipeline stage run duration.", obs.StageBuckets, l)
		s.mRetries[stage] = reg.Counter("seneca_study_stage_retries_total",
			"Volume pipeline stage attempts beyond the first.", l)
	}
	s.mLoads = make(map[string]map[string]*obs.Counter)
	for _, artifact := range []string{"input", "slices", "mask"} {
		s.mLoads[artifact] = make(map[string]*obs.Counter)
		for _, source := range []string{fromMemory, fromDisk} {
			s.mLoads[artifact][source] = reg.Counter("seneca_study_artifact_loads_total",
				"Durable stage artifacts consumed by the next stage, by where it found them.",
				obs.L("artifact", artifact), obs.L("source", source))
		}
	}
}

// Metrics returns the registry this service reports into.
func (s *Service) Metrics() *obs.Registry { return s.reg }
