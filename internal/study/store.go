package study

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"seneca/internal/fault"
)

// Store is the durable job store: one JSON record per job under dir/jobs,
// volume blobs under dir/blobs. Records are written with write-temp-then-
// rename, so a record on disk is always a complete, parseable snapshot —
// a crash can lose at most the latest transition, never corrupt a job.
// Open recovers whatever the last process persisted.
type Store struct {
	dir string

	mu   sync.Mutex
	jobs map[string]*Job
}

// OpenStore opens (creating if needed) the store rooted at dir and loads
// every persisted job record. Leftover .tmp files from an interrupted
// rename are deleted. A record must be a JSON object whose id names its
// file (jobs/<id>.json); anything else — unparseable, null or another JSON
// value, an empty id, or an id that is not the file's, which the next
// update would write elsewhere — is quarantined with a .corrupt suffix
// rather than loaded or taking the whole store down.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs"), filepath.Join(dir, "blobs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("study: creating store dir: %w", err)
		}
	}
	st := &Store{dir: dir, jobs: make(map[string]*Job)}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("study: reading job dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, "jobs", name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(path) // interrupted rename: the old record still holds
		case strings.HasSuffix(name, ".json"):
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("study: reading job record %s: %w", name, err)
			}
			var j Job
			if err := json.Unmarshal(raw, &j); err != nil || j.ID == "" || j.ID+".json" != name {
				os.Rename(path, path+".corrupt")
				continue
			}
			st.jobs[j.ID] = &j
		}
	}
	return st, nil
}

func (st *Store) jobPath(id string) string {
	return filepath.Join(st.dir, "jobs", id+".json")
}

// Blob paths. Every stage's durable artifact has a fixed location derived
// from the job id, so a resumed stage finds its inputs without bookkeeping.
func (st *Store) blob(id, suffix string) string {
	return filepath.Join(st.dir, "blobs", id+suffix)
}

// InputPath is the uploaded CT volume (NIfTI).
func (st *Store) InputPath(id string) string { return st.blob(id, ".input.nii") }

// TruthPath is the optional ground-truth label volume (NIfTI).
func (st *Store) TruthPath(id string) string { return st.blob(id, ".truth.nii") }

// SliceMaskPath is the model-resolution mask stack (raw uint8).
func (st *Store) SliceMaskPath(id string) string { return st.blob(id, ".masks.u8") }

// MaskPath is the reassembled native-resolution label volume (NIfTI).
func (st *Store) MaskPath(id string) string { return st.blob(id, ".mask.nii") }

// newID allocates a fresh 16-hex-digit job id.
func (st *Store) newID() (string, error) {
	for i := 0; i < 10; i++ {
		var b [8]byte
		if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
			return "", fmt.Errorf("study: generating job id: %w", err)
		}
		id := hex.EncodeToString(b[:])
		st.mu.Lock()
		_, taken := st.jobs[id]
		st.mu.Unlock()
		if !taken {
			return id, nil
		}
	}
	return "", fmt.Errorf("study: could not allocate a unique job id")
}

// persistLocked writes the record atomically. Callers hold st.mu.
func (st *Store) persistLocked(j *Job) error {
	// Chaos seam: a record write that fails like a full or flaky disk.
	if err := fault.Check("study.store.persist"); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("study: marshaling job %s: %w", j.ID, err)
	}
	path := st.jobPath(j.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("study: writing job record: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("study: committing job record: %w", err)
	}
	return nil
}

// Create persists a new job record and returns its id.
func (st *Store) Create(j Job) (string, error) {
	id, err := st.newID()
	if err != nil {
		return "", err
	}
	j.ID = id
	now := time.Now().UTC()
	j.Created, j.Updated = now, now
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.persistLocked(&j); err != nil {
		return "", err
	}
	st.jobs[id] = &j
	return id, nil
}

// Update applies mutate to the canonical record under the store lock and
// persists the result atomically.
func (st *Store) Update(id string, mutate func(*Job)) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return fmt.Errorf("study: unknown job %s", id)
	}
	mutate(j)
	j.Updated = time.Now().UTC()
	return st.persistLocked(j)
}

// Get returns a deep copy of one job record.
func (st *Store) Get(id string) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.clone(), true
}

// Delete removes a job record and every blob filed under its id: the
// artifacts above, a half-written .tmp a crash left behind, and what an
// earlier layout of the store wrote (the .pre.f32 stack preprocess used to
// persist).
func (st *Store) Delete(id string) {
	st.mu.Lock()
	delete(st.jobs, id)
	st.mu.Unlock()
	os.Remove(st.jobPath(id))
	blobs, _ := filepath.Glob(st.blob(id, ".*")) // the pattern is well-formed: ids are hex
	for _, p := range blobs {
		os.Remove(p)
	}
}

// List returns copies of every job, newest first.
func (st *Store) List() []Job {
	st.mu.Lock()
	out := make([]Job, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, j.clone())
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Resumable returns the ids of jobs a reopened service must pick back up:
// everything not in a terminal state, queued before running (jobs that
// never started yield to jobs interrupted mid-run only by creation time).
func (st *Store) Resumable() []string {
	jobs := st.List()
	var ids []string
	for i := len(jobs) - 1; i >= 0; i-- { // oldest first
		if !jobs[i].Terminal() {
			ids = append(ids, jobs[i].ID)
		}
	}
	return ids
}

// CountState returns the number of jobs in one state.
func (st *Store) CountState(s State) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.State == s {
			n++
		}
	}
	return n
}
