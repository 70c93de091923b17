package main

// Probe surface — serve:
//
//	serve.DecodeSegmentRequest
//	serve.New, serve.Config (zero value), (*serve.Server).Submit, .Segment,
//	.Handler, .Shutdown
//	dpu.New, dpu.ZCU104B4096
//	tensor.FromSlice

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"seneca/internal/dpu"
	"seneca/internal/serve"
	"seneca/internal/tensor"
)

var encodingNames = [numEncodings]string{"octet", "json", "nifti"}

// probeDecode times serve.DecodeSegmentRequest on one input in each of the
// three encodings; prefix is "serve.decode" at the workload's geometry and
// "serve.decode256" at the paper's.
func probeDecode(wk *walk, prefix string, size int, bodies [numEncodings][]byte, withAllocs bool) error {
	for enc, body := range bodies {
		decode := func() error {
			r := httptest.NewRequest(http.MethodPost, "/v1/segment", bytes.NewReader(body))
			r.Header.Set("Content-Type", contentTypes[enc])
			_, _, err := serve.DecodeSegmentRequest(httptest.NewRecorder(), r, 1, size, size, 0)
			return err
		}
		if err := wk.sample(fmt.Sprintf("%s.%s_us", prefix, encodingNames[enc]), decode); err != nil {
			return err
		}
		if withAllocs {
			allocs, _ := allocsPer(20, func() { decode() })
			wk.set(fmt.Sprintf("%s.%s_allocs", prefix, encodingNames[enc]), allocs)
		}
	}
	return nil
}

// paperBodies is one seeded input at the paper's 256×256 geometry in every
// encoding.
func paperBodies(rng *rand.Rand) ([numEncodings][]byte, error) {
	in := make([]float32, 256*256)
	for i := range in {
		in[i] = float32(rng.NormFloat64() * 0.3)
	}
	nii, err := encodeNIfTISlice(in, 256)
	return [numEncodings][]byte{encodeOctet(in), encodeJSON(in), nii}, err
}

// probeServe times one request at a time through an idle in-process server:
// Submit (queue → batcher → backend) and the HTTP handler around it. The
// two alternate, so a drift of the host hits both alike.
func probeServe(wk *walk, m *model, pool *slicePool) error {
	srv, err := serve.New(dpu.New(dpu.ZCU104B4096()), m.prog, serve.Config{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	i := 0
	submit := func() error {
		i++
		_, err := srv.Submit(context.Background(), tensor.FromSlice(pool.inputs[i%len(pool.inputs)], 1, m.size, m.size))
		return err
	}
	post := func() error {
		i++
		resp, err := ts.Client().Post(ts.URL+"/v1/segment", contentTypes[encOctet],
			bytes.NewReader(pool.bodies[i%len(pool.inputs)][encOctet]))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, pool.masks[i%len(pool.inputs)]) {
			return fmt.Errorf("in-process server answered %s with a mask that differs from Program.Run", resp.Status)
		}
		return nil
	}
	if err := wk.sampleEach(timing{"serve.submit_ms", 1, submit}, timing{"serve.http_ms", 1, post}); err != nil {
		return err
	}
	// Alone in the queue, a request waits out the whole MaxDelay batching
	// window (2 ms by default) before it is dispatched.
	wk.set("serve.submit_self_ms", wk.get("serve.submit_ms")-wk.get("backend.dpu-sim.execute1_ms"))
	wk.set("serve.http_self_ms",
		wk.get("serve.http_ms")-wk.get("serve.submit_ms")-wk.get("serve.decode.octet_us")/1e3)
	// Client and server share the process, so the counts include the
	// client's half of the exchange.
	allocs, bytes := allocsPer(10, func() { post() })
	wk.set("serve.http_allocs", allocs)
	wk.set("serve.http_alloc_kb", bytes/1024)
	return nil
}
