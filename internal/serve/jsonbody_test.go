package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"testing/iotest"
)

// FuzzDecodeJSONBody holds the one-pass JSON decode to encoding/json, which
// decoded every JSON body before it: for any bytes, decodeJSONData and
// json.NewDecoder(...).Decode into the old struct both succeed or both fail,
// with the same error, and on success they agree on the length and on every
// Float32bits. The same holds read a byte at a time, and under a body cap
// (the 413 of an over-cap body is a cap error from both). The committed corpus covers the
// canonical form with its whitespace, the number grammar's edges and range,
// every way out of the canonical form, trailing bytes and truncation.
func FuzzDecodeJSONBody(f *testing.F) {
	f.Add([]byte(`{"data":[1,2.5,-3]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Data []float32 `json:"data"`
		}
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		for _, r := range []struct {
			name string
			body io.Reader
		}{
			{"whole", bytes.NewReader(body)},
			{"byte-at-a-time", iotest.OneByteReader(bytes.NewReader(body))},
		} {
			got, err := decodeJSONData(r.body, 4)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, encoding/json says %v", r.name, err, wantErr)
			}
			if err != nil {
				continue
			}
			if len(got) != len(want.Data) {
				t.Fatalf("%s: %d values, encoding/json has %d", r.name, len(got), len(want.Data))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s: value %d is %v, encoding/json has %v", r.name, i, got[i], want.Data[i])
				}
			}
		}

		limit := int64(len(body) / 2)
		capped := func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit) }
		wantErr = json.NewDecoder(capped()).Decode(&want)
		_, err := decodeJSONData(capped(), 4)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("under a %d-byte cap: error %v, encoding/json says %v", limit, err, wantErr)
		}
	})
}

// TestJSONDeclaredLengthHoldsNoMemory sends a short canonical JSON body under
// a Content-Length far past it and past the door's cap: the declared length
// is only a claim, so the decode reads what arrives, answers as for an honest
// header, and allocates for the bytes it got, not for the claim.
func TestJSONDeclaredLengthHoldsNoMemory(t *testing.T) {
	body := []byte(`{"data":[1,2.5,-3,0]}`)
	decode := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/segment", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		r.ContentLength = 1 << 20
		img, status, err := DecodeSegmentRequest(httptest.NewRecorder(), r, 1, 2, 2, 1024)
		if err != nil || status != 0 || img.Data[1] != 2.5 {
			t.Fatalf("status %d, err %v", status, err)
		}
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	testing.AllocsPerRun(runs, decode)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call on top of the measured runs.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%d-byte JSON body declared as 1 MiB: %d bytes per decode", len(body), perCall)
	if perCall > 16<<10 {
		t.Fatalf("decode allocates %d bytes for a %d-byte body, want under 16 KiB", perCall, len(body))
	}
}
