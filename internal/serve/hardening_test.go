package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// TestBodyCap413 pins the upload-size guardrail: a body over
// Config.MaxBodyBytes is rejected with 413, an in-cap but wrong-sized body
// stays a 400 (the cap must not mask shape validation).
func TestBodyCap413(t *testing.T) {
	s, _, _, _ := newTestServer(t, Config{Threads: 2, MaxBodyBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	over := bytes.Repeat([]byte{0}, 4096)
	resp, err := http.Post(ts.URL+"/v1/segment", "application/octet-stream", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: got %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/segment", "application/octet-stream", bytes.NewReader(over[:512]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("in-cap wrong-size body: got %d, want 400", resp.StatusCode)
	}

	// JSON bodies ride the same cap.
	big := append([]byte(`{"data":[`), bytes.Repeat([]byte("1,"), 2048)...)
	big = append(big, []byte("1]}")...)
	resp, err = http.Post(ts.URL+"/v1/segment", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap JSON body: got %d, want 413", resp.StatusCode)
	}
}

// untouchedBody is a request body that fails the test the moment anyone
// reads it.
type untouchedBody struct{ t *testing.T }

func (b untouchedBody) Read([]byte) (int, error) {
	b.t.Error("request body was read before the headers were rejected")
	return 0, io.EOF
}

// TestBadHeadersRejectedBeforeBodyRead pins the order of the front door's
// checks on both serve-tier handlers: a malformed deadline, an unknown tier
// or an octet-stream body whose declared length is not the model's input
// size is refused from the headers alone, without reading a body that may
// be MaxBodyBytes long.
func TestBadHeadersRejectedBeforeBodyRead(t *testing.T) {
	s, _, _, _ := newTestServer(t, Config{Threads: 1})
	f, _, _ := newTestFront(t)
	for _, tc := range []struct {
		name          string
		h             http.Handler
		header, value string
		want          int
	}{
		{"server/malformed deadline", s.Handler(), DeadlineHeader, "soon", http.StatusBadRequest},
		{"server/non-positive deadline", s.Handler(), DeadlineHeader, "0", http.StatusBadRequest},
		{"server/wrong declared length", s.Handler(), "Content-Length", "4095", http.StatusBadRequest},
		{"front/malformed deadline", f.Handler(), DeadlineHeader, "soon", http.StatusBadRequest},
		{"front/unknown tier", f.Handler(), "X-Seneca-Tier", "platinum", http.StatusNotFound},
		{"front/wrong declared length", f.Handler(), "Content-Length", "4097", http.StatusBadRequest},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/segment", untouchedBody{t})
		r.Header.Set("Content-Type", "application/octet-stream")
		r.Header.Set(tc.header, tc.value)
		if tc.header == "Content-Length" { // what net/http parses the header into
			r.ContentLength, _ = strconv.ParseInt(tc.value, 10, 64)
		}
		w := httptest.NewRecorder()
		tc.h.ServeHTTP(w, r)
		if w.Code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, w.Code, tc.want)
		}
	}
}
