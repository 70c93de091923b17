package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// pollEvery is how often the volume client asks for a job's status.
const pollEvery = 5 * time.Millisecond

// jobLimit bounds one volume job; past it the job counts as failed.
const jobLimit = 60 * time.Second

// volumeTarget submits whole volumes to seneca-study and verifies the masks.
type volumeTarget struct {
	base string
	hc   *http.Client
	vol  *studyVolume

	// Medians of these are study.upload_ms and study.download_ms.
	uploadMS, downloadMS []float64
}

// job runs one volume through the service: POST /v1/volumes, poll the
// status until the job is terminal, GET the mask and compare it with the
// oracle's byte for byte. Its units are the volume's slices.
func (t *volumeTarget) job(tc traceCtx) outcome {
	out := outcome{started: time.Now()}
	fail := func(wrong bool) outcome {
		out.failed, out.wrong, out.done = true, wrong, time.Now()
		return out
	}
	resp, err := t.hc.Post(t.base+"/v1/volumes", "application/x-nifti", bytes.NewReader(t.vol.ct))
	if err != nil {
		return fail(false)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || accepted.ID == "" {
		return fail(false)
	}
	uploaded := time.Now()

	for {
		state, err := t.state(accepted.ID)
		if err != nil || state == "failed" || time.Since(uploaded) > jobLimit {
			return fail(false)
		}
		if state == "done" {
			break
		}
		time.Sleep(pollEvery)
	}
	finished := time.Now()

	resp, err = t.hc.Get(t.base + "/v1/volumes/" + accepted.ID + "/mask")
	if err != nil {
		return fail(false)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail(false)
	}
	downloaded := time.Now()
	if !bytes.Equal(got, t.vol.mask) {
		return fail(true)
	}
	out.units, out.done = t.vol.nz, time.Now()

	t.uploadMS = append(t.uploadMS, float64(uploaded.Sub(out.started))/float64(time.Millisecond))
	t.downloadMS = append(t.downloadMS, float64(downloaded.Sub(finished))/float64(time.Millisecond))
	tc.requestSpans(out.started, uploaded, finished, downloaded, out.done)
	return out
}

// state fetches one job's lifecycle state.
func (t *volumeTarget) state(id string) (string, error) {
	resp, err := t.hc.Get(t.base + "/v1/volumes/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET job %s: %s", id, resp.Status)
	}
	var j struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return "", err
	}
	return j.State, nil
}
