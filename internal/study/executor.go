package study

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"seneca/internal/fault"
	"seneca/internal/nifti"
)

// Submission errors.
var (
	// ErrQueueFull reports that the job queue is at capacity; the HTTP
	// layer maps it to 429.
	ErrQueueFull = errors.New("study: job queue full")
	// ErrClosed reports a submission to a closed service.
	ErrClosed = errors.New("study: service is closed")
)

// Service executes volume jobs: a durable Store, a pool of job workers, and
// a Segmenter the infer stage fans slices across. Construct with New,
// release with Close. Closing does not lose work — incomplete jobs resume
// at their last completed stage when a new Service opens the same store.
type Service struct {
	cfg Config
	st  *Store
	seg Segmenter

	inH, inW int

	queue  chan string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	// work holds the working set of every job a worker is running right now
	// (see workingSet); an entry is gone before its job's terminal state is
	// recorded, and at the latest when its runJob call returns.
	work map[string]*workingSet

	// rng drives retry-backoff jitter; seeded so chaos runs replay.
	rngMu sync.Mutex
	rng   *rand.Rand

	start time.Time
	obsHandles
}

// New opens (or reopens) the store at cfg.Dir, re-enqueues every incomplete
// job at its recorded stage, and starts the worker pool.
func New(seg Segmenter, cfg Config) (*Service, error) {
	if seg == nil {
		return nil, errors.New("study: nil segmenter")
	}
	if cfg.Dir == "" {
		return nil, errors.New("study: Config.Dir is required")
	}
	c, h, w := seg.InputShape()
	if c != 1 {
		return nil, fmt.Errorf("study: volume pipeline needs a single-channel model, this one has %d", c)
	}
	cfg = cfg.withDefaults()
	st, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	resume := st.Resumable()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg: cfg, st: st, seg: seg,
		inH: h, inW: w,
		// Size the queue so every resumed job fits alongside a full new
		// admission window.
		queue:  make(chan string, cfg.QueueDepth+len(resume)),
		ctx:    ctx,
		cancel: cancel,
		work:   make(map[string]*workingSet),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		start:  time.Now(),
	}
	s.initMetrics(cfg.Metrics)
	for _, id := range resume {
		// A job interrupted mid-run reports queued again until a worker
		// picks it back up.
		st.Update(id, func(j *Job) { j.State = StateQueued })
		s.queue <- id
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the underlying job store (status reads, tests).
func (s *Service) Store() *Store { return s.st }

// Close stops the workers and waits for them. In-flight stages are
// interrupted; their jobs stay resumable in the store.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}

// SubmitVolume persists a new job for the given CT volume (with optional
// ground-truth labels) and enqueues it. It returns the job id immediately;
// progress is observed through the store or the HTTP status endpoint.
func (s *Service) SubmitVolume(ct *nifti.Volume, truth *nifti.Volume, opt Options) (string, error) {
	if ct == nil {
		return "", errors.New("study: nil volume")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	s.mu.Unlock()
	if truth != nil && (truth.Nx != ct.Nx || truth.Ny != ct.Ny || truth.Nz != ct.Nz) {
		return "", fmt.Errorf("study: ground truth is %d×%d×%d, CT is %d×%d×%d",
			truth.Nx, truth.Ny, truth.Nz, ct.Nx, ct.Ny, ct.Nz)
	}

	id, err := s.st.Create(Job{
		State: StateQueued,
		Stage: StageIngest,
		Nx:    ct.Nx, Ny: ct.Ny, Nz: ct.Nz,
		PixDim:      ct.PixDim,
		HasTruth:    truth != nil,
		Postprocess: opt.Postprocess,
	})
	if err != nil {
		return "", err
	}
	// Blobs before enqueue: a worker must never see a record whose input
	// is still being written.
	if err := writeBlobAtomic(s.st.InputPath(id), func(f *os.File) error {
		return nifti.Write(f, ct)
	}); err != nil {
		s.st.Delete(id)
		return "", fmt.Errorf("study: persisting input volume: %w", err)
	}
	if truth != nil {
		if err := writeBlobAtomic(s.st.TruthPath(id), func(f *os.File) error {
			return nifti.Write(f, truth)
		}); err != nil {
			s.st.Delete(id)
			return "", fmt.Errorf("study: persisting ground truth: %w", err)
		}
	}
	select {
	case s.queue <- id:
		return id, nil
	default:
		s.st.Delete(id)
		return "", ErrQueueFull
	}
}

// worker pulls job ids and drives each through the stage sequence.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case id := <-s.queue:
			s.runJob(id)
		case <-s.ctx.Done():
			return
		}
	}
}

// runJob executes a job from its recorded stage to completion. A stage that
// exhausts its attempt budget fails the job; a shutdown mid-stage leaves
// the record at the interrupted stage so a reopened store resumes there.
func (s *Service) runJob(id string) {
	j, ok := s.st.Get(id)
	if !ok || j.Terminal() {
		return
	}
	s.st.Update(id, func(j *Job) { j.State = StateRunning })
	ws := new(workingSet)
	s.mu.Lock()
	s.work[id] = ws
	s.mu.Unlock()
	// The working set goes before a terminal state is recorded, so a client
	// that has seen "done" or "failed" never finds the job's memory still
	// registered; the deferred call covers a shutdown mid-stage.
	release := func() {
		s.mu.Lock()
		delete(s.work, id)
		s.mu.Unlock()
	}
	defer release()
	for idx := stageIndex(j.Stage); idx < len(stageOrder); idx++ {
		stage := stageOrder[idx]
		if err := s.runStage(id, stage, ws); err != nil {
			if s.ctx.Err() != nil {
				// Shutdown, not failure: the job resumes at this stage.
				return
			}
			release()
			s.st.Update(id, func(j *Job) {
				j.State = StateFailed
				j.Stage = ""
				j.Error = err.Error()
			})
			s.mJobsFailed.Inc()
			return
		}
		if idx+1 < len(stageOrder) {
			s.st.Update(id, func(j *Job) { j.Stage = stageOrder[idx+1] })
		}
	}
	release()
	s.st.Update(id, func(j *Job) {
		j.State = StateDone
		j.Stage = ""
	})
	s.mJobsDone.Inc()
}

// backoff returns the wait before retry attempt (1-based): exponential
// doubling from Config.RetryBackoff with ±25% jitter, so retry storms
// across workers decorrelate. The jitter draws from the service's seeded
// RNG, keeping chaos runs reproducible.
func (s *Service) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBackoff << (attempt - 1)
	s.rngMu.Lock()
	f := 0.75 + 0.5*s.rng.Float64()
	s.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// runStage executes one stage with retry and jittered exponential backoff.
// Backoff waits select on the service context, so Close never waits out a
// sleeping retry. A failed attempt empties the working set: the stage may
// have failed after changing it in place, so the next attempt starts from the
// durable artifacts, as a resumed job does.
func (s *Service) runStage(id string, stage Stage, ws *workingSet) error {
	fn := s.stageFunc(stage)
	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.mRetries[stage].Inc()
			t := time.NewTimer(s.backoff(attempt))
			select {
			case <-t.C:
			case <-s.ctx.Done():
				t.Stop()
				return s.ctx.Err()
			}
		}
		s.st.Update(id, func(j *Job) {
			if j.Attempts == nil {
				j.Attempts = make(map[string]int)
			}
			j.Attempts[string(stage)]++
		})
		begin := time.Now()
		// Chaos seam: a whole-stage failure ("study.stage.infer" etc.)
		// exercises the retry/backoff path without faulting a deeper layer.
		err := fault.CheckCtx(s.ctx, "study.stage."+string(stage))
		if err == nil {
			err = fn(s.ctx, id, ws)
		}
		s.mStageDur[stage].Observe(time.Since(begin).Seconds())
		if err == nil {
			return nil
		}
		*ws = workingSet{}
		if s.ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("study: stage %s failed after %d attempts: %w", stage, s.cfg.MaxAttempts, lastErr)
}

func (s *Service) stageFunc(stage Stage) func(context.Context, string, *workingSet) error {
	switch stage {
	case StageIngest:
		return s.stageIngest
	case StagePreprocess:
		return s.stagePreprocess
	case StageInfer:
		return s.stageInfer
	case StageReassemble:
		return s.stageReassemble
	case StagePostprocess:
		return s.stagePostprocess
	case StageReport:
		return s.stageReport
	}
	return func(context.Context, string, *workingSet) error {
		return fmt.Errorf("study: unknown stage %q", stage)
	}
}
