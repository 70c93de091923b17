package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seneca/internal/nifti"
	"seneca/internal/tensor"
)

func startHTTP(t *testing.T, cfg Config) (*httptest.Server, *Server, []float32, []uint8) {
	t.Helper()
	s, _, prog, imgs := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	want, err := prog.Run(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	return ts, s, imgs[0].Data, want
}

func TestHTTPOctetStreamRoundTrip(t *testing.T) {
	ts, _, data, want := startHTTP(t, Config{Threads: 2})
	resp, err := http.Post(ts.URL+"/v1/segment", "application/octet-stream", bytes.NewReader(EncodeInput(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Seneca-Mask-Shape"); got != "32x32" {
		t.Fatalf("mask shape header %q", got)
	}
	mask, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mask, want) {
		t.Fatal("HTTP mask differs from direct execution")
	}
}

// TestHTTPNonFiniteInputIsPinned follows a body with NaN and infinite
// pixels from DecodeSegmentRequest through Submit: NaN must segment exactly
// like 0 and ±Inf like values far off the grid, on every architecture.
func TestHTTPNonFiniteInputIsPinned(t *testing.T) {
	ts, s, data, _ := startHTTP(t, Config{Threads: 2})
	odd := append([]float32(nil), data...)
	pinned := append([]float32(nil), data...)
	nan := float32(math.NaN())
	for i, v := range map[int][2]float32{5: {nan, 0}, 100: {float32(math.Inf(1)), 3e38}, 517: {float32(math.Inf(-1)), -3e38}, 1023: {-nan, 0}} {
		odd[i], pinned[i] = v[0], v[1]
	}
	want, err := s.Submit(context.Background(), tensor.FromSlice(pinned, 1, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/segment", "application/octet-stream", bytes.NewReader(EncodeInput(odd)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mask, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, read error %v: %s", resp.StatusCode, err, mask)
	}
	if !bytes.Equal(mask, want) {
		t.Fatal("a body with NaN and ±Inf pixels did not segment like 0 and ±3e38")
	}
}

func TestHTTPJSONRoundTrip(t *testing.T) {
	ts, _, data, want := startHTTP(t, Config{Threads: 2})
	body, err := json.Marshal(map[string]any{"data": data})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/segment", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	mask, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(mask, want) {
		t.Fatal("JSON-encoded request produced a different mask")
	}
}

func TestHTTPNIfTISlice(t *testing.T) {
	ts, _, data, want := startHTTP(t, Config{Threads: 2})
	// Pack the test slice as plane z=1 of a 3-slice float32 volume.
	vol := nifti.NewVolume(32, 32, 3, nifti.DTFloat32)
	copy(vol.Data[32*32:], data)
	var buf bytes.Buffer
	if err := nifti.Write(&buf, vol); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/segment?z=1", "application/x-nifti", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	mask, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(mask, want) {
		t.Fatal("NIfTI-encoded request produced a different mask")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts, _, data, _ := startHTTP(t, Config{Threads: 2})
	cases := []struct {
		name, ct string
		body     []byte
		query    string
		want     int
	}{
		{"short binary body", "application/octet-stream", []byte{1, 2, 3}, "", http.StatusBadRequest},
		{"bad json", "application/json", []byte("{"), "", http.StatusBadRequest},
		{"wrong json length", "application/json", []byte(`{"data":[1,2]}`), "", http.StatusBadRequest},
		{"unsupported media", "text/plain", []byte("hi"), "", http.StatusUnsupportedMediaType},
		{"bad nifti", "application/x-nifti", []byte("not a volume"), "", http.StatusBadRequest},
		{"nifti slice out of range", "application/x-nifti", niftiBody(t, data), "?z=99", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/segment"+tc.query, tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/segment")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/segment: HTTP %d, want 405", resp.StatusCode)
	}
}

// countingReader counts the bytes handed out from a body of undeclared length.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestOctetBodyReadAtItsSize drives DecodeSegmentRequest with octet-stream
// bodies that declare no length (what a chunked upload looks like): only a
// body of exactly 4·C·H·W bytes decodes, and no body is read further than one
// byte past that, however long it is.
func TestOctetBodyReadAtItsSize(t *testing.T) {
	const c, h, w = 1, 32, 32
	exact := EncodeInput(make([]float32, c*h*w))
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"exact", exact, 0},
		{"empty", nil, http.StatusBadRequest},
		{"one byte short", exact[:len(exact)-1], http.StatusBadRequest},
		{"one byte over", append(exact[:len(exact):len(exact)], 0), http.StatusBadRequest},
		{"three inputs long", bytes.Repeat(exact, 3), http.StatusBadRequest},
	} {
		body := &countingReader{r: bytes.NewReader(tc.body)}
		r := httptest.NewRequest(http.MethodPost, "/v1/segment", body)
		r.Header.Set("Content-Type", "application/octet-stream")
		img, status, err := DecodeSegmentRequest(httptest.NewRecorder(), r, c, h, w, 0)
		if status != tc.want || (err == nil) != (tc.want == 0) || (img == nil) != (tc.want != 0) {
			t.Errorf("%s: status %d, err %v; want status %d", tc.name, status, err, tc.want)
		}
		if body.n > len(exact)+1 {
			t.Errorf("%s: read %d bytes of a body that is wrong from byte %d on", tc.name, body.n, len(exact)+1)
		}
	}
}

func niftiBody(t *testing.T, data []float32) []byte {
	t.Helper()
	vol := nifti.NewVolume(32, 32, 1, nifti.DTFloat32)
	copy(vol.Data, data)
	var buf bytes.Buffer
	if err := nifti.Write(&buf, vol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHTTPHealthzAndStatz(t *testing.T) {
	ts, s, data, _ := startHTTP(t, Config{Threads: 2, MaxBatch: 4})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: HTTP %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"draining":false`) {
		t.Fatalf("healthz body missing draining field: %s", body)
	}

	// Serve one request so the stats are non-trivial.
	r2, err := http.Post(ts.URL+"/v1/segment", "application/octet-stream", bytes.NewReader(EncodeInput(data)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()

	var st Stats
	r3, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if err := json.NewDecoder(r3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Model != "tiny" || st.InputShape != [3]int{1, 32, 32} {
		t.Fatalf("statz identity: %+v", st)
	}
	if st.Completed < 1 || st.Batches < 1 || st.P50LatencyMS <= 0 {
		t.Fatalf("statz counters: %+v", st)
	}
	if st.SimFPS <= 0 || st.SimFPSPerWatt <= 0 {
		t.Fatalf("statz simulated deployment estimate missing: %+v", st)
	}

	// Draining flips healthz to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	r4, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body4, _ := io.ReadAll(r4.Body)
	r4.Body.Close()
	if r4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: HTTP %d, want 503", r4.StatusCode)
	}
	if !strings.Contains(string(body4), `"draining":true`) {
		t.Fatalf("draining healthz body missing draining field: %s", body4)
	}
}

func TestFetchInputShape(t *testing.T) {
	ts, _, _, _ := startHTTP(t, Config{Threads: 2})
	shape, err := FetchInputShape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if shape != [3]int{1, 32, 32} {
		t.Fatalf("shape = %v", shape)
	}
}

func TestFormatSweep(t *testing.T) {
	var sb strings.Builder
	FormatSweep(&sb, []LoadPoint{{
		Concurrency: 4, Requests: 100, Rejected: 3, Throughput: 123.4,
		P50: 2 * time.Millisecond, P99: 9 * time.Millisecond, MeanBatch: 2.5,
	}})
	out := sb.String()
	for _, frag := range []string{"conc", "429s", "123.4", "2.50"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("sweep table missing %q:\n%s", frag, out)
		}
	}
	if fmt.Sprint(out) == "" {
		t.Fatal("empty table")
	}
}
