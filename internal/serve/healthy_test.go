package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"seneca/internal/backend"
	"seneca/internal/dpu"
	"seneca/internal/xmodel"
)

// sickKind is a backend kind that computes exactly like cpu-int8 but whose
// self-check always fails: its breaker stays closed, and only the backend's
// own Health says it must not take traffic.
const sickKind = "sick-cpu-int8"

type sickBackend struct{ backend.Backend }

func (sickBackend) Name() string  { return sickKind }
func (sickBackend) Health() error { return errors.New("self-check fails") }

func init() {
	backend.Register(sickKind, func(dev *dpu.Device, prog *xmodel.Program, opt backend.Options) (backend.Backend, error) {
		be, err := backend.New(backend.KindCPUInt8, dev, prog, opt)
		if err != nil {
			return nil, err
		}
		return sickBackend{be}, nil
	})
}

// get answers one GET on the server's HTTP surface in process.
func get(s *Server, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// metricValue reads one series' value from a /metrics exposition.
func metricValue(t *testing.T, exposition []byte, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(exposition), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", series)
	return 0
}

// TestOneMeaningOfHealthy: a runner whose backend fails its self-check gets
// no traffic from the router, so it is not healthy anywhere — /statz,
// Health, /healthz and /metrics count it out alike. A pool of nothing but
// such runners routes nothing and answers /healthz 503.
func TestOneMeaningOfHealthy(t *testing.T) {
	for _, tc := range []struct {
		pool    string
		healthy int
		status  int
	}{
		{"dpu-sim," + sickKind, 1, http.StatusOK},
		{sickKind + ":2", 0, http.StatusServiceUnavailable},
	} {
		t.Run(tc.pool, func(t *testing.T) {
			s, _, _, imgs := newTestServer(t, Config{Backends: tc.pool, Threads: 2})
			if tc.healthy > 0 {
				if _, err := s.Submit(context.Background(), imgs[0]); err != nil {
					t.Fatal(err)
				}
				for _, row := range s.Stats().Backends {
					if row.Backend == sickKind && row.Frames != 0 {
						t.Fatalf("the router placed frames on a runner failing its self-check: %+v", row)
					}
				}
			}

			var statz Stats
			if _, body := get(s, "/statz"); json.Unmarshal(body, &statz) != nil || statz.HealthyRunners != tc.healthy {
				t.Errorf("/statz healthy_runners %d, want %d", statz.HealthyRunners, tc.healthy)
			}
			if h := s.Health(); h.Healthy != tc.healthy || !h.Degraded {
				t.Errorf("Health: %d healthy, degraded %t; want %d, true", h.Healthy, h.Degraded, tc.healthy)
			}
			var healthz struct {
				Status  string `json:"status"`
				Healthy int    `json:"healthy_runners"`
			}
			code, body := get(s, "/healthz")
			if err := json.Unmarshal(body, &healthz); err != nil {
				t.Fatalf("/healthz %s: %v", body, err)
			}
			if code != tc.status || healthz.Status != "degraded" || healthz.Healthy != tc.healthy {
				t.Errorf("/healthz: HTTP %d %s; want HTTP %d, degraded, %d healthy", code, body, tc.status, tc.healthy)
			}
			if _, body := get(s, "/metrics"); metricValue(t, body, "seneca_serve_healthy_runners") != float64(tc.healthy) {
				t.Errorf("seneca_serve_healthy_runners %v, want %d", metricValue(t, body, "seneca_serve_healthy_runners"), tc.healthy)
			}
		})
	}
}
