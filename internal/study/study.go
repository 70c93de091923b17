// Package study is the whole-volume tier of the SENECA stack: it turns the
// slice-level online serving path (internal/serve) into an asynchronous
// study pipeline that takes a NIfTI CT volume in and produces a reassembled
// 3D label volume with per-organ statistics — the unit of work the paper's
// evaluation is actually scored on (Table I reports per-organ Dice over
// whole CT-ORG volumes, not slices).
//
// Architecture:
//
//	HTTP job API        POST /v1/volumes → job id; GET /v1/volumes/{id} →
//	                    status/progress; GET /v1/volumes/{id}/mask → NIfTI
//	durable job store   one JSON record per job, written with atomic
//	                    rename; reopening a store resumes incomplete jobs
//	staged executor     ingest → preprocess → infer → reassemble →
//	                    postprocess → report, with per-stage retry/backoff.
//	                    The disk is for crashes, not for hand-off: within
//	                    one run a stage takes its input from the job's
//	                    in-memory working set (decoded CT, preprocessed
//	                    stack, slice masks, label volume), left there by
//	                    the stage before it and dropped once consumed. The
//	                    input, the slice masks and the label volume are
//	                    still written to the blob directory, atomically,
//	                    before their stage is marked complete, so a job
//	                    interrupted by a crash restarts at the last
//	                    completed stage, not from scratch — loading that
//	                    stage's input from its blob, or, for the
//	                    preprocessed stack (never written: cheaper to
//	                    recompute than to read back), recomputing it from
//	                    the input. The attempt after a failed one starts
//	                    from the blobs too
//	slice fan-out       the infer stage submits slices concurrently to a
//	                    Segmenter (the serve.Server micro-batching pool),
//	                    so whole-volume jobs ride the same admission queue
//	                    and batcher as interactive slice requests
//	3D post-processing  per-organ largest-connected-component filtering on
//	                    the reassembled label volume (stray islands are the
//	                    dominant slice-wise failure mode in 3D)
//	volumetric report   per-organ volume in mL from the NIfTI voxel
//	                    spacing, plus Dice/global Dice against an optional
//	                    ground-truth volume
//
// Everything is instrumented through internal/obs: jobs by state, per-stage
// duration histograms, slices/sec, and where each stage found its input
// (memory or disk).
package study

import (
	"context"
	"time"

	"seneca/internal/obs"
	"seneca/internal/tensor"
)

// Segmenter is the slice-level inference backend a Service fans volume
// slices across. *serve.Server satisfies it; tests substitute controllable
// fakes.
type Segmenter interface {
	// Submit segments one CHW slice, blocking until the mask is ready.
	Submit(ctx context.Context, img *tensor.Tensor) ([]uint8, error)
	// InputShape returns the model's CHW input geometry.
	InputShape() (c, h, w int)
	// NumClasses returns the class count of output masks.
	NumClasses() int
}

// Config tunes the study service. Dir is required; every other field
// defaults to the values noted below.
type Config struct {
	// Dir is the durable store root. Job records live in Dir/jobs, volume
	// blobs (input, intermediates, mask) in Dir/blobs.
	Dir string
	// Workers is the number of concurrent job executors. Default 2.
	Workers int
	// SliceParallel is how many slices of one job may be in flight in the
	// Segmenter at once. Default 4 — enough to keep the serve micro-batcher
	// coalescing without monopolizing its admission queue.
	SliceParallel int
	// MaxAttempts is the per-stage attempt budget before a job fails.
	// Default 3.
	MaxAttempts int
	// RetryBackoff is the delay before the first stage retry; it doubles on
	// each subsequent attempt. Default 100ms.
	RetryBackoff time.Duration
	// QueueDepth bounds the number of jobs waiting for a worker; beyond it
	// submissions are rejected with ErrQueueFull. Default 64.
	QueueDepth int
	// Seed drives the retry-backoff jitter (deterministic per seed).
	// Default 1.
	Seed int64
	// MaxBodyBytes caps uploaded volume bodies on the HTTP API; an
	// over-cap upload is rejected with 413. Default 256 MiB.
	MaxBodyBytes int64
	// Metrics is the observability registry the service reports into. nil
	// gives the service a private registry.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SliceParallel <= 0 {
		c.SliceParallel = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = maxBodyBytes
	}
	return c
}

// State is the lifecycle state of a job.
type State string

// Job lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// States lists every job state, in lifecycle order (used for metrics).
var States = []State{StateQueued, StateRunning, StateDone, StateFailed}

// Stage is one step of the volume pipeline.
type Stage string

// Pipeline stages, in execution order.
const (
	StageIngest      Stage = "ingest"
	StagePreprocess  Stage = "preprocess"
	StageInfer       Stage = "infer"
	StageReassemble  Stage = "reassemble"
	StagePostprocess Stage = "postprocess"
	StageReport      Stage = "report"
)

// stageOrder is the execution sequence; Job.Stage always names the next
// stage to run, so resuming a job is an index lookup here.
var stageOrder = []Stage{
	StageIngest, StagePreprocess, StageInfer,
	StageReassemble, StagePostprocess, StageReport,
}

func stageIndex(s Stage) int {
	for i, st := range stageOrder {
		if st == s {
			return i
		}
	}
	return 0 // unknown or empty: restart from ingest (all stages idempotent)
}

// Options are the per-job knobs accepted at submission.
type Options struct {
	// Postprocess enables largest-connected-component filtering on the
	// reassembled volume. The HTTP layer defaults it to true
	// (?postprocess=0 disables, e.g. for bit-exactness tests against the
	// synchronous slice path).
	Postprocess bool
}

// Job is one durable volume-segmentation job. The store's copy is
// canonical; accessors return value copies so readers never race the
// executing worker.
type Job struct {
	ID      string    `json:"id"`
	State   State     `json:"state"`
	Stage   Stage     `json:"stage,omitempty"` // next stage to run; empty once terminal
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	Error   string    `json:"error,omitempty"`
	// Attempts counts executions per stage (retries included), for
	// post-mortems and the status endpoint.
	Attempts map[string]int `json:"attempts,omitempty"`

	// Volume geometry recorded by the ingest stage.
	Nx     int        `json:"nx"`
	Ny     int        `json:"ny"`
	Nz     int        `json:"nz"`
	PixDim [3]float32 `json:"pix_dim"`

	HasTruth    bool `json:"has_truth"`
	Postprocess bool `json:"postprocess"`

	// SlicesDone tracks infer-stage progress (checkpointed periodically;
	// it may trail the true count by a few slices).
	SlicesDone int `json:"slices_done"`
	// Removed is the per-class voxel count deleted by the postprocess
	// stage's largest-component filter.
	Removed []int64 `json:"removed,omitempty"`

	Report *Report `json:"report,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j *Job) Terminal() bool { return j.State == StateDone || j.State == StateFailed }

// clone deep-copies a job so store readers never alias worker-mutated maps.
func (j *Job) clone() Job {
	c := *j
	if j.Attempts != nil {
		c.Attempts = make(map[string]int, len(j.Attempts))
		for k, v := range j.Attempts {
			c.Attempts[k] = v
		}
	}
	if j.Removed != nil {
		c.Removed = append([]int64(nil), j.Removed...)
	}
	if j.Report != nil {
		r := *j.Report
		r.Organs = append([]OrganReport(nil), j.Report.Organs...)
		c.Report = &r
	}
	return c
}

// OrganReport is one organ's row of the volumetric report.
type OrganReport struct {
	Class  int    `json:"class"`
	Name   string `json:"name"`
	Voxels int64  `json:"voxels"`
	// VolumeML is the organ volume in milliliters, from voxel count ×
	// voxel spacing (mm³ → mL).
	VolumeML float64 `json:"volume_ml"`
	// RemovedVoxels counts voxels the largest-component filter deleted.
	RemovedVoxels int64 `json:"removed_voxels"`
	// Dice is the per-organ Dice coefficient against the supplied ground
	// truth; only meaningful when the report's HasTruth is set.
	Dice float64 `json:"dice,omitempty"`
}

// Report is the volumetric summary produced by the report stage.
type Report struct {
	// VoxelML is the physical volume of one voxel in mL.
	VoxelML float64       `json:"voxel_ml"`
	Slices  int           `json:"slices"`
	Organs  []OrganReport `json:"organs"`
	// HasTruth marks that a ground-truth volume was supplied and the Dice
	// fields are meaningful.
	HasTruth bool `json:"has_truth"`
	// GlobalDice is the frequency-weighted mean per-organ Dice (the
	// paper's global DSC), when HasTruth.
	GlobalDice float64 `json:"global_dice,omitempty"`
}
