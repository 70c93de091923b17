package study

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzOpenStore writes arbitrary bytes as the one job record jobs/<id>.json
// and opens the store. OpenStore, Resumable and List never panic; a record
// that is not a JSON object is quarantined as .corrupt and never loaded; a
// loaded record is exactly the job of that id, still on disk under its name;
// and a second open sees the same store. The committed corpus covers a real
// record, every JSON value that is not an object, empty, foreign and
// path-escaping ids, wrong field types, trailing bytes and truncation.
func FuzzOpenStore(f *testing.F) {
	const id = "0123456789abcdef"
	valid, err := json.Marshal(Job{ID: id, State: StateRunning, Stage: StageInfer, Created: time.Unix(1700000000, 0).UTC(),
		Attempts: map[string]int{"infer": 2}, Nx: 64, Ny: 64, Nz: 12, Removed: []int64{0, 3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		jobs := filepath.Join(dir, "jobs")
		if err := os.MkdirAll(jobs, 0o755); err != nil {
			t.Fatal(err)
		}
		record := filepath.Join(jobs, id+".json")
		if err := os.WriteFile(record, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		list, resumable := st.List(), st.Resumable()
		_, statErr := os.Stat(record + ".corrupt")
		quarantined := statErr == nil
		var object map[string]json.RawMessage
		if err := json.Unmarshal(raw, &object); err != nil || object == nil {
			if !quarantined || len(list) != 0 {
				t.Fatalf("a record that is not an object: quarantined %v, %d jobs loaded", quarantined, len(list))
			}
		}
		switch {
		case quarantined:
			if len(list) != 0 || len(resumable) != 0 {
				t.Fatalf("quarantined record loaded: %d jobs, resumable %v", len(list), resumable)
			}
			if _, err := os.Stat(record); !os.IsNotExist(err) {
				t.Fatalf("quarantined record still at its name: %v", err)
			}
		case len(list) != 1 || list[0].ID != id:
			t.Fatalf("record neither quarantined nor loaded as %s: %+v", id, list)
		case len(resumable) > 1 || (len(resumable) == 1) == list[0].Terminal():
			t.Fatalf("resumable %v for a job in state %q", resumable, list[0].State)
		}
		again, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := again.List(); len(got) != len(list) {
			t.Fatalf("reopened store has %d jobs, first open %d", len(got), len(list))
		}
	})
}
