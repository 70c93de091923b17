package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own files around a
// call into a layer. Spans of one request share req ("workload/window/seq");
// parent is the id of the span that caused this one (0: none).
type span struct {
	id, parent int
	name       string
	req        string
	lane       int // Chrome-trace tid: the client or walk lane the span ran on
	start, end time.Time
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced windows run.
type recorder struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(parent int, name, req string, lane int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, req: req, lane: lane, start: start, end: end})
	return id
}

// reserve allocates an id for a span whose children finish before it does;
// finish fills it in.
func (r *recorder) reserve() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1})
	return len(r.spans)
}

func (r *recorder) finish(id, parent int, name, req string, lane int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1] = span{id: id, parent: parent, name: name, req: req, lane: lane, start: start, end: end}
}

// selfTimes returns, per span name, each span's duration minus the time its
// direct children cover.
func (r *recorder) selfTimes() map[string][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		covered[s.parent] += s.end.Sub(s.start)
	}
	out := map[string][]time.Duration{}
	for _, s := range r.spans {
		out[s.name] = append(out[s.name], s.end.Sub(s.start)-covered[s.id])
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the recorder's epoch
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeFile writes every span as a Chrome-trace JSON array.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		if s.name == "" {
			continue // reserved, never finished
		}
		ev := chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:  float64(s.start.Sub(r.epoch)) / float64(time.Microsecond),
			Dur: float64(s.end.Sub(s.start)) / float64(time.Microsecond),
		}
		if s.req != "" {
			ev.Args = map[string]string{"request": s.req}
		}
		events = append(events, ev)
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
