package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"time"

	"seneca/internal/nifti"
	"seneca/internal/tensor"
)

// maxBodyBytes caps request bodies (a 512×512 float32 slice is 1 MiB; a
// whole NIfTI volume can be much larger).
const maxBodyBytes = 256 << 20

// DeadlineHeader is the request header carrying the client's end-to-end
// latency budget in milliseconds. The serving tier turns it into a context
// deadline at the front door, so it propagates through admission, batching
// and dispatch — and, at the cluster tier, into hedging decisions.
const DeadlineHeader = "X-Seneca-Deadline-Ms"

// ServedVariantHeader names the model variant that actually produced a
// response. On a VariantFront it can be a cheaper brownout rung than the
// X-Seneca-Variant the request nominally routed to.
const ServedVariantHeader = "X-Seneca-Served-Variant"

// HedgedHeader is set ("1") on cluster responses whose request launched a
// cross-node hedge leg before completing.
const HedgedHeader = "X-Seneca-Hedged"

// Door is one front door's share of the /v1/segment exchange; ServeHTTP owns
// the rest, for every door: POST only; the door's routing headers, then
// X-Seneca-Deadline-Ms, all checked before any body byte is read; the body
// decoded by DecodeSegmentRequest; one error→status ladder (ErrQueueFull →
// 429 with Retry-After, ErrDraining → 503, a context error → 504, anything
// else → 500 — other tiers' sentinels match these through errors.Is); and the
// Content-Type, X-Seneca-Mask-Shape and X-Seneca-Batch response headers. R
// carries what the routing step decided to the call that answers.
type Door[R any] struct {
	// C, H, W is the model geometry a body decodes to; MaxBody caps the body.
	C, H, W int
	MaxBody int64
	// Route reads the door's routing headers. An error is answered with the
	// status returned beside it.
	Route func(r *http.Request) (R, int, error)
	// Segment answers one decoded request: the mask and the occupancy of the
	// micro-batch it rode in. On success it may set the door's own response
	// headers on h.
	Segment func(ctx context.Context, route R, img *tensor.Tensor, h http.Header) ([]uint8, int, error)
	// RetryAfter is the door's backoff estimate for a 429.
	RetryAfter func(route R) time.Duration
}

// ServeHTTP answers POST /v1/segment.
func (d *Door[R]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Headers first: a request they condemn must not cost a body read of up
	// to MaxBodyBytes before its 4xx.
	route, status, err := d.Route(r)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	ctx := r.Context()
	if v := r.Header.Get(DeadlineHeader); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			http.Error(w, fmt.Sprintf("serve: bad %s header", DeadlineHeader), http.StatusBadRequest)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	img, status, err := DecodeSegmentRequest(w, r, d.C, d.H, d.W, d.MaxBody)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	h := w.Header()
	mask, occupancy, err := d.Segment(ctx, route, img, h)
	if err != nil {
		status = http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrQueueFull):
			status = http.StatusTooManyRequests
			h.Set("Retry-After", strconv.Itoa(max(int(d.RetryAfter(route).Seconds()+0.999), 1)))
		case errors.Is(err, ErrDraining):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Seneca-Mask-Shape", strconv.Itoa(d.H)+"x"+strconv.Itoa(d.W))
	h.Set("X-Seneca-Batch", strconv.Itoa(occupancy))
	w.Write(mask)
}

// Mux serves the door at /v1/segment beside the routes every front door
// has: healthz()'s body as JSON at /healthz, under the status code it returns
// with it; stats() as indented JSON at /statz; and metrics at /metrics.
func (d *Door[R]) Mux(healthz func() (status int, body any), stats func() any, metrics http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/v1/segment", d)
	serveJSON := func(indent string, read func() (int, any)) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			status, body := read()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			enc := json.NewEncoder(w)
			enc.SetIndent("", indent)
			enc.Encode(body)
		}
	}
	mux.HandleFunc("/healthz", serveJSON("", healthz))
	mux.HandleFunc("/statz", serveJSON("  ", func() (int, any) { return http.StatusOK, stats() }))
	mux.Handle("/metrics", metrics)
	return mux
}

// Handler returns the HTTP surface of the server:
//
//	POST /v1/segment   one CT slice in, one INT8-argmax mask out
//	GET  /healthz      pool health (503 while draining or with no healthy runner)
//	GET  /statz        Stats snapshot as JSON
//	GET  /metrics      the same numbers in Prometheus text format
//
// /v1/segment accepts three request encodings, selected by Content-Type:
//
//	application/octet-stream   raw little-endian float32, C·H·W values
//	                           (the model's preprocessed input layout)
//	application/json           {"data":[...]} with C·H·W numbers
//	application/x-nifti        a NIfTI-1 volume; query parameter z picks
//	                           the axial slice (default: the middle one)
//
// The response body is the raw uint8 mask (H·W bytes, class per pixel)
// with X-Seneca-Mask-Shape and X-Seneca-Batch headers.
func (s *Server) Handler() http.Handler {
	g := s.prog.Graph
	d := &Door[struct{}]{
		C: g.InC, H: g.InH, W: g.InW, MaxBody: s.cfg.MaxBodyBytes,
		Route: func(*http.Request) (struct{}, int, error) { return struct{}{}, 0, nil },
		Segment: func(ctx context.Context, _ struct{}, img *tensor.Tensor, _ http.Header) ([]uint8, int, error) {
			return s.submit(ctx, img)
		},
		RetryAfter: func(struct{}) time.Duration { return s.RetryAfter() },
	}
	return d.Mux(s.healthz, func() any { return s.Stats() }, s.reg.Handler())
}

// healthz is the /healthz answer. Degraded (some runner not healthy) still
// answers 200 — the pool serves on its remaining healthy runners. Zero
// healthy runners is a 503: the router has nowhere to place regular traffic.
func (s *Server) healthz() (int, any) {
	type body struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
		Model    string `json:"model"`
	}
	if s.Draining() {
		return http.StatusServiceUnavailable, body{"draining", true, s.prog.Name}
	}
	h := s.Health()
	out := struct {
		body
		Runners  int      `json:"runners"`
		Healthy  int      `json:"healthy_runners"`
		Degraded bool     `json:"degraded"`
		Backends []string `json:"backends"`
	}{body{"ok", false, s.prog.Name}, h.Runners, h.Healthy, h.Degraded, h.Backends}
	if h.Degraded {
		out.Status = "degraded"
	}
	if h.Healthy == 0 {
		return http.StatusServiceUnavailable, out
	}
	return http.StatusOK, out
}

// statusFor maps a body-read error to its HTTP status: 413 when the
// MaxBodyBytes cap tripped (http.MaxBytesReader), else the fallback.
func statusFor(err error, fallback int) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return fallback
}

// DecodeSegmentRequest parses one /v1/segment request body into a CHW
// input tensor for a model with geometry c×h×wd, honoring the same three
// Content-Type encodings the Server accepts (octet-stream, JSON, NIfTI)
// and capping the body at maxBody bytes (413 beyond it). The int return is
// the HTTP status for the error case. Every Door decodes through it; it is
// exported for callers that decode a request without binding to any one
// Server.
func DecodeSegmentRequest(w http.ResponseWriter, r *http.Request, c, h, wd int, maxBody int64) (*tensor.Tensor, int, error) {
	n := c * h * wd
	if maxBody <= 0 {
		maxBody = maxBodyBytes
	}
	ct := r.Header.Get("Content-Type")
	if ct != "" {
		if parsed, _, err := mime.ParseMediaType(ct); err == nil {
			ct = parsed
		}
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	switch ct {
	case "", "application/octet-stream":
		// The body's size is known before its first byte: a declared length
		// that is not it is refused from the header alone, and anything else
		// — a chunked body included — is read once, into a buffer one byte
		// longer than that, so exactly 4n bytes end it early and 4n+1 is as
		// far as an oversized one gets.
		wrongSize := func(got int64) error {
			return fmt.Errorf("serve: body is %d bytes, want %d (float32 %d×%d×%d)", got, 4*n, c, h, wd)
		}
		if r.ContentLength >= 0 && r.ContentLength != int64(4*n) {
			return nil, http.StatusBadRequest, wrongSize(r.ContentLength)
		}
		buf := make([]byte, 4*n+1)
		switch got, err := io.ReadFull(body, buf); {
		case err == nil:
			return nil, http.StatusBadRequest,
				fmt.Errorf("serve: body is longer than %d bytes (float32 %d×%d×%d)", 4*n, c, h, wd)
		case err != io.ErrUnexpectedEOF && err != io.EOF:
			return nil, statusFor(err, http.StatusBadRequest), err
		case got != 4*n:
			return nil, http.StatusBadRequest, wrongSize(int64(got))
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return tensor.FromSlice(data, c, h, wd), 0, nil

	case "application/json":
		data, err := decodeJSONData(body, n)
		if err != nil {
			return nil, statusFor(err, http.StatusBadRequest), fmt.Errorf("serve: bad JSON body: %w", err)
		}
		if len(data) != n {
			return nil, http.StatusBadRequest,
				fmt.Errorf("serve: data has %d values, want %d (%d×%d×%d)", len(data), n, c, h, wd)
		}
		return tensor.FromSlice(data, c, h, wd), 0, nil

	case "application/x-nifti", "application/nifti":
		if c != 1 {
			return nil, http.StatusBadRequest,
				fmt.Errorf("serve: NIfTI input needs a single-channel model, this one has %d", c)
		}
		vol, err := nifti.Read(body)
		if err != nil {
			return nil, statusFor(err, http.StatusBadRequest), fmt.Errorf("serve: bad NIfTI body: %w", err)
		}
		if vol.Nx != wd || vol.Ny != h {
			return nil, http.StatusBadRequest,
				fmt.Errorf("serve: NIfTI slice is %d×%d, model wants %d×%d", vol.Ny, vol.Nx, h, wd)
		}
		z := vol.Nz / 2
		if q := r.URL.Query().Get("z"); q != "" {
			z, err = strconv.Atoi(q)
			if err != nil || z < 0 || z >= vol.Nz {
				return nil, http.StatusBadRequest,
					fmt.Errorf("serve: slice z=%q out of range [0,%d)", q, vol.Nz)
			}
		}
		return tensor.FromSlice(vol.Slice(z), 1, h, wd), 0, nil
	}
	return nil, http.StatusUnsupportedMediaType,
		fmt.Errorf("serve: unsupported Content-Type %q", ct)
}
