package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"seneca/internal/fault"
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

// TestBadHeadersRejectedBeforeBodyRead pins the one /v1/segment exchange on
// both serve-tier doors. A malformed deadline, an unknown tier or an
// octet-stream body whose declared length is not the model's input size is
// refused from the headers alone, without reading a body that may be
// MaxBodyBytes long. A request that reaches its server is answered by the
// error ladder — queue full 429 with Retry-After, draining 503, lapsed
// deadline 504, a backend error past the redispatch budget 500 — or with the
// mask and the door's headers.
func TestBadHeadersRejectedBeforeBodyRead(t *testing.T) {
	// One lane, a one-deep queue and one redispatch put every rung of the
	// ladder a request or two away.
	cfg := Config{Threads: 1, MaxBatch: 1, QueueDepth: 1, MaxRedispatch: 1}
	s, _, _, imgs := newTestServer(t, cfg)
	dev, prov, _ := variantPrograms(t, 32)
	f, err := NewVariantFront(dev, prov, defaultTiers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	t.Cleanup(fault.Reset)
	body := rawBody(imgs[0])
	lapsed, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	// fill holds the only lane of srv's runner, parks one request in a formed
	// batch and one in the queue, and returns what lets them finish.
	var release func()
	fill := func(srv *Server) func() {
		return func() {
			free := holdLanes(srv, 1)
			base := srv.stats.accepted.Load()
			parked := []<-chan segmented{segment(context.Background(), srv)}
			waitFormed(t, srv, base+1)
			parked = append(parked, segment(context.Background(), srv))
			waitFor(t, 5*time.Second, "the queue never filled", func() bool { return srv.QueueDepth() == 1 })
			release = func() {
				free()
				for _, c := range parked {
					if r := <-c; r.err != nil {
						t.Errorf("request parked behind the held lane: %v", r.err)
					}
				}
			}
		}
	}
	drain := func(shutdown func(context.Context) error) func() {
		return func() {
			release()
			shutdown(context.Background())
		}
	}
	failTwice := func() { fault.Enable("backend.execute.dpu-sim", fault.Fault{Count: 2}) }
	mask := map[string]string{"Content-Type": "application/octet-stream", "X-Seneca-Mask-Shape": "32x32", "X-Seneca-Batch": "1"}
	variant := map[string]string{"X-Seneca-Variant": "int8-uniform", ServedVariantHeader: "int8-uniform"}
	for k, v := range mask {
		variant[k] = v
	}
	sh, fh := s.Handler(), f.Handler()
	for _, tc := range []struct {
		name          string
		h             http.Handler
		header, value string
		body          []byte // nil: a body nobody may read
		ctx           context.Context
		prep          func()
		want          int
		headers       map[string]string
	}{
		{name: "server/malformed deadline", h: sh, header: DeadlineHeader, value: "soon", want: http.StatusBadRequest},
		{name: "server/non-positive deadline", h: sh, header: DeadlineHeader, value: "0", want: http.StatusBadRequest},
		{name: "server/wrong declared length", h: sh, header: "Content-Length", value: "4095", want: http.StatusBadRequest},
		{name: "front/malformed deadline", h: fh, header: DeadlineHeader, value: "soon", want: http.StatusBadRequest},
		{name: "front/unknown tier", h: fh, header: "X-Seneca-Tier", value: "platinum", want: http.StatusNotFound},
		{name: "front/wrong declared length", h: fh, header: "Content-Length", value: "4097", want: http.StatusBadRequest},

		{name: "server/success", h: sh, body: body, want: http.StatusOK, headers: mask},
		{name: "server/lapsed deadline", h: sh, body: body, ctx: lapsed, want: http.StatusGatewayTimeout},
		{name: "server/backend error", h: sh, body: body, prep: failTwice, want: http.StatusInternalServerError},
		{name: "server/queue full", h: sh, body: body, prep: fill(s), want: http.StatusTooManyRequests},
		{name: "server/draining", h: sh, body: body, prep: drain(s.Shutdown), want: http.StatusServiceUnavailable},
		{name: "front/success", h: fh, body: body, want: http.StatusOK, headers: variant},
		{name: "front/lapsed deadline", h: fh, body: body, ctx: lapsed, want: http.StatusGatewayTimeout},
		{name: "front/backend error", h: fh, body: body, prep: failTwice, want: http.StatusInternalServerError},
		{name: "front/queue full", h: fh, body: body, prep: fill(f.Server("int8-uniform")), want: http.StatusTooManyRequests},
		{name: "front/draining", h: fh, body: body, prep: drain(f.Shutdown), want: http.StatusServiceUnavailable},
	} {
		if tc.prep != nil {
			tc.prep()
		}
		var r *http.Request
		if tc.body == nil {
			r = httptest.NewRequest(http.MethodPost, "/v1/segment", untouchedBody{t})
		} else {
			r = httptest.NewRequest(http.MethodPost, "/v1/segment", bytes.NewReader(tc.body))
		}
		r.Header.Set("Content-Type", "application/octet-stream")
		if tc.header != "" {
			r.Header.Set(tc.header, tc.value)
		}
		if tc.header == "Content-Length" { // what net/http parses the header into
			r.ContentLength, _ = strconv.ParseInt(tc.value, 10, 64)
		}
		if tc.ctx != nil {
			r = r.WithContext(tc.ctx)
		}
		w := httptest.NewRecorder()
		tc.h.ServeHTTP(w, r)
		if w.Code != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, w.Code, strings.TrimSpace(w.Body.String()), tc.want)
		}
		for k, v := range tc.headers {
			if got := w.Header().Get(k); got != v {
				t.Errorf("%s: %s = %q, want %q", tc.name, k, got, v)
			}
		}
		if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); (tc.want == http.StatusTooManyRequests) != (err == nil && secs >= 1) {
			t.Errorf("%s: Retry-After %q on HTTP %d", tc.name, w.Header().Get("Retry-After"), w.Code)
		}
	}
}
