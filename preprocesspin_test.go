// Preprocess bit pins: the SHA-256 of the float32 bits the Section III-A
// input pipeline (resample, 1%/99% saturation, [-1, 1] rescale) produces,
// through imaging.Preprocess and through the study tier's h×w preprocess
// stage. The INT8 masks cannot stand in for these: input quantisation can
// hide a one-ULP change in a pixel. A faster selection or a fused pass must
// leave every digest here as it is.
package seneca_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"seneca/internal/imaging"
	"seneca/internal/nifti"
	"seneca/internal/study"
	"seneca/internal/tensor"
)

// preprocessPins maps each case to the digest of its preprocessed output.
var preprocessPins = map[string]string{
	"preprocess/61x47-to-33":                 "be9ff59cecb112d21decd5d38522a089d25c055f67b3da0e5d0202a7ad69f783",
	"preprocess/61x47-to-97":                 "1fa4ef034bf4785dfd38c9b12caf5a0e2f19a511e9589eb159a96d6d95aedd69",
	"preprocess/all-equal-48":                "2d07a41ae992770085117e9815300bfd0730745883e60b24aaad5e69dfc087ae",
	"preprocess/benchmark-ct-256":            "7123cab3714c80d0aeca61ade0bb7dbae735b4a517db96bd9761237861317b73",
	"preprocess/non-finite-and-zeros-64":     "722b4ece481c40f40bf89e3672d86059224ce94dcfb615fd70c64971ee7eb1f0",
	"preprocess/normal-256":                  "40545e3851a9b1926b667c03f420cc463e1fbd831b481bfbadb3568a13a82b5a",
	"preprocess/signed-zeros-32":             "ad7facb2586fc6e966c004d7d1d16b024f5805ff7cb47c7a85dabd8b48892ca7",
	"saturate-rescale/benchmark-ct-4-slices": "ef2af89d03f75f47027e9fcc04880c3292936afdd3b2a7565673850af70bee26",
	"study/61x47x3-to-37x53":                 "f607384d8f3de7513427050b05eda74058244bb136cc23289c9d80ce1fc19edc",
	"study/benchmark-ct-256":                 "3efb46a08ab75a84f80a8a60f9a0e8d690ffea171f110021c1a0a7cf8884aeab",
}

// recordingSegmenter is a study.Segmenter that keeps the digest of every
// slice the preprocess stage hands it and answers with an empty mask.
type recordingSegmenter struct {
	h, w int

	mu      sync.Mutex
	digests []string
}

func (r *recordingSegmenter) Submit(_ context.Context, img *tensor.Tensor) ([]uint8, error) {
	d := digest(img.Data)
	r.mu.Lock()
	r.digests = append(r.digests, d)
	r.mu.Unlock()
	return make([]uint8, r.h*r.w), nil
}

func (r *recordingSegmenter) InputShape() (c, h, w int) { return 1, r.h, r.w }
func (r *recordingSegmenter) NumClasses() int           { return 2 }

// studyDigest runs ct through a study.Service whose model takes h×w slices
// and digests the slices its preprocess stage produced. Slices reach the
// segmenter in parallel, so the per-slice digests are sorted first.
func studyDigest(t *testing.T, ct *nifti.Volume, h, w int) string {
	t.Helper()
	seg := &recordingSegmenter{h: h, w: w}
	svc, err := study.New(seg, study.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.SubmitVolume(ct, nil, study.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		j, _ := svc.Store().Get(id)
		if j.Terminal() {
			if j.State != study.StateDone {
				t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
	}
	if len(seg.digests) != ct.Nz {
		t.Fatalf("segmenter saw %d slices, the volume has %d", len(seg.digests), ct.Nz)
	}
	sort.Strings(seg.digests)
	sum := sha256.Sum256([]byte(strings.Join(seg.digests, "\n")))
	return hex.EncodeToString(sum[:])
}

func normalSlice(seed int64, n int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	img := make([]float32, n)
	for i := range img {
		img[i] = float32(rng.NormFloat64())
	}
	return img
}

func TestPreprocessPins(t *testing.T) {
	if fmaContracted() {
		t.Skip("the compiler fuses multiply-adds on this target; the pins hold for separately rounded products")
	}
	got := map[string]string{}

	ct := benchCT(t)
	got["study/benchmark-ct-256"] = studyDigest(t, ct, 256, 256)
	var stack [][]float32
	for z := 0; z < ct.Nz; z++ {
		stack = append(stack, imaging.Preprocess(ct.Slice(z), ct.Ny, ct.Nx, 256))
	}
	got["preprocess/benchmark-ct-256"] = digest(stack...)

	got["preprocess/normal-256"] = digest(imaging.Preprocess(normalSlice(1, 256*256), 256, 256, 256))

	// NaN, ±Inf and ±0 scattered over a normal slice, past the 1% tails.
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	mixed := normalSlice(2, 64*64)
	rng := rand.New(rand.NewSource(3))
	for i := range mixed {
		if rng.Intn(10) == 0 {
			mixed[i] = special[rng.Intn(len(special))]
		}
	}
	got["preprocess/non-finite-and-zeros-64"] = digest(imaging.Preprocess(mixed, 64, 64, 64))
	zeros := make([]float32, 32*32)
	for i := range zeros {
		zeros[i] = special[3+i%2]
	}
	zeros[5], zeros[9] = 1, -1
	got["preprocess/signed-zeros-32"] = digest(imaging.Preprocess(zeros, 32, 32, 32))

	equal := make([]float32, 48*48)
	for i := range equal {
		equal[i] = -1000
	}
	got["preprocess/all-equal-48"] = digest(imaging.Preprocess(equal, 48, 48, 48))

	// Odd geometries: down and up, square and not.
	odd := normalSlice(4, 61*47)
	for i := range odd {
		odd[i] = odd[i]*300 - 200
	}
	got["preprocess/61x47-to-33"] = digest(imaging.Preprocess(odd, 61, 47, 33))
	got["preprocess/61x47-to-97"] = digest(imaging.Preprocess(odd, 61, 47, 97))
	small := nifti.NewVolume(47, 61, 3, nifti.DTFloat32)
	copy(small.Data, odd)
	copy(small.Data[len(odd):], normalSlice(5, len(odd)))
	copy(small.Data[2*len(odd):], equal)
	got["study/61x47x3-to-37x53"] = studyDigest(t, small, 37, 53)

	// SaturatePercentiles then RescaleToUnit over a whole volume, as the 3D
	// baseline calls them.
	vol := append([]float32(nil), ct.Data[:4*256*256]...)
	imaging.SaturatePercentiles(vol, 0.01, 0.99)
	imaging.RescaleToUnit(vol)
	got["saturate-rescale/benchmark-ct-4-slices"] = digest(vol)

	var missing []string
	for name, d := range got {
		want, ok := preprocessPins[name]
		switch {
		case !ok:
			missing = append(missing, name)
			t.Logf("%q: %q,", name, d)
		case d != want:
			t.Errorf("%s: digest %s, pinned %s", name, d, want)
		}
	}
	for name := range preprocessPins {
		if _, ok := got[name]; !ok {
			t.Errorf("pin %s has no case", name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no pin for %s", strings.Join(missing, ", "))
	}
}
