// Volumes: the whole-volume tier end to end in one process — compile a
// compact network, stand up the micro-batching inference server and the
// asynchronous study pipeline over a temporary job store, submit a phantom
// patient's CT (with its ground-truth labels) over HTTP, poll the job to
// completion and print the volumetric report: per-organ volume in mL and
// Dice against the ground truth, the whole-volume unit the paper's Table I
// scores on.
//
//	go run ./examples/volumes
//
// Runtime: a few seconds on a laptop CPU.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"time"

	"seneca"
	"seneca/internal/hostmain"
	"seneca/internal/nifti"
)

func main() {
	log.SetFlags(0)

	// A compact shape-only-quantized U-Net: the pipeline is identical to a
	// trained model's, the weights just aren't meaningful.
	prog, err := hostmain.DemoProgram(64)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := seneca.NewServer(seneca.NewZCU104(), prog, seneca.ServeConfig{
		Threads: 4, MaxBatch: 8, MaxDelay: 2 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	store, err := os.MkdirTemp("", "seneca-volumes-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(store)
	svc, err := seneca.NewStudyService(srv, seneca.StudyConfig{Dir: store, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// One synthetic patient: CT volume plus voxel-aligned ground truth.
	vols := seneca.GeneratePhantomCohort(1, seneca.PhantomOptions{
		Size: 96, Slices: 12, Seed: 7, NoiseSigma: 12})
	vol := vols[0]
	fmt.Printf("patient volume: %d×%d×%d voxels, %.1f×%.1f×%.1f mm spacing\n\n",
		vol.CT.Nx, vol.CT.Ny, vol.CT.Nz,
		vol.CT.PixDim[0], vol.CT.PixDim[1], vol.CT.PixDim[2])

	// Submit CT + ground truth as multipart; the service answers 202 with a
	// job id immediately and segments the volume in the background.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	ctw, _ := mw.CreateFormFile("ct", "ct.nii")
	if err := nifti.Write(ctw, vol.CT); err != nil {
		log.Fatal(err)
	}
	gtw, _ := mw.CreateFormFile("gt", "gt.nii")
	if err := nifti.Write(gtw, vol.Labels); err != nil {
		log.Fatal(err)
	}
	mw.Close()

	resp, err := http.Post(base+"/v1/volumes", mw.FormDataContentType(), &body)
	if err != nil {
		log.Fatal(err)
	}
	var sub struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted job %s (HTTP %d)\n", sub.ID, resp.StatusCode)

	// Poll the status endpoint until the job is done.
	var status struct {
		seneca.StudyJob
		Progress float64 `json:"progress"`
	}
	for {
		r, err := http.Get(base + sub.StatusURL)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
			log.Fatal(err)
		}
		r.Body.Close()
		if status.State == "done" {
			break
		}
		if status.State == "failed" {
			log.Fatalf("job failed: %s", status.Error)
		}
		fmt.Printf("  %-8s stage=%-11s progress=%4.0f%%\n",
			status.State, status.Stage, 100*status.Progress)
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Println("  done")

	rep := status.Report
	fmt.Printf("\nvolumetric report (voxel = %.4f mL, %d slices):\n",
		rep.VoxelML, rep.Slices)
	fmt.Printf("  %-10s %10s %10s %8s %8s\n", "organ", "voxels", "mL", "removed", "dice")
	for _, o := range rep.Organs {
		fmt.Printf("  %-10s %10d %10.1f %8d %8.3f\n",
			o.Name, o.Voxels, o.VolumeML, o.RemovedVoxels, o.Dice)
	}
	fmt.Printf("  global Dice: %.3f (untrained demo weights — Table I reports "+
		"0.9+ for trained models)\n", rep.GlobalDice)

	// The mask itself downloads as a NIfTI volume.
	r, err := http.Get(base + sub.StatusURL + "/mask")
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	buf := make([]byte, 32*1024)
	for {
		k, err := r.Body.Read(buf)
		n += k
		if err != nil {
			break
		}
	}
	r.Body.Close()
	fmt.Printf("\nmask download: %d bytes of NIfTI (HTTP %d)\n", n, r.StatusCode)
}
