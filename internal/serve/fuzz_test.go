package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"seneca/internal/tensor"
)

// FuzzDecodeSegmentRequest drives the front door's header checks and body
// decoding — content type × declared or absent Content-Length × deadline and
// tier headers × z × body bytes — through the one Door, routed by a real
// VariantFront, with a Segment that only records what it was handed. Whatever
// the input, nothing panics, an error is a 400, 404, 413 or 415, and a
// success hands Segment a C×H×W tensor. The committed corpus under
// testdata/fuzz covers every encoding, both statuses of each header and the
// body cap.
func FuzzDecodeSegmentRequest(f *testing.F) {
	const size, maxBody = 16, 4096
	dev, prov, imgs := variantPrograms(f, size)
	front, err := NewVariantFront(dev, prov, defaultTiers(), Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { front.Shutdown(context.Background()) })
	f.Add("application/octet-stream", true, "", "", "", rawBody(imgs[0]))

	f.Fuzz(func(t *testing.T, contentType string, declared bool, deadline, tier, z string, body []byte) {
		var got *tensor.Tensor
		d := &Door[variantRoute]{
			C: 1, H: size, W: size, MaxBody: maxBody,
			Route: front.route,
			Segment: func(_ context.Context, _ variantRoute, img *tensor.Tensor, _ http.Header) ([]uint8, int, error) {
				got = img
				return make([]uint8, size*size), 1, nil
			},
			RetryAfter: func(variantRoute) time.Duration { return time.Second },
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/segment?z="+url.QueryEscape(z), bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		r.Header.Set(DeadlineHeader, deadline)
		r.Header.Set("X-Seneca-Tier", tier)
		if !declared {
			r.ContentLength = -1 // a chunked upload
		}
		w := httptest.NewRecorder()
		d.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK:
			if got == nil || got.Rank() != 3 || got.Dim(0) != 1 || got.Dim(1) != size || got.Dim(2) != size {
				var shape []int
				if got != nil {
					shape = got.Shape
				}
				t.Fatalf("HTTP 200 with a decoded input of shape %v", shape)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
		default:
			t.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	})
}
