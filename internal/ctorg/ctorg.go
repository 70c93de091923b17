// Package ctorg is the dataset layer of the SENECA workflow: it turns
// (phantom-generated) CT volumes into preprocessed 2D training slices,
// manages patient-level train/validation/test splits, computes the organ
// statistics of paper Tables I and III, and builds the PTQ calibration sets
// — both the naive random sampling and the "manual sampling" with leveled
// organ frequencies that Section III-D introduces.
package ctorg

import (
	"fmt"
	"math"
	"math/rand"

	"seneca/internal/imaging"
	"seneca/internal/phantom"
	"seneca/internal/tensor"
)

// NumClasses re-exports the class count (background + 5 organs).
const NumClasses = phantom.NumClasses

// ClassNames re-exports the class names.
var ClassNames = phantom.ClassNames

// Slice is one preprocessed axial CT slice with its ground truth.
type Slice struct {
	// Patient identifies the source volume.
	Patient int
	// Z is the slice index within the source volume.
	Z int
	// Image is the preprocessed size×size intensity image in [-1, 1].
	Image []float32
	// Labels is the size×size class-index map.
	Labels []uint8
	// ClassPixels counts pixels per class in Labels.
	ClassPixels [NumClasses]int
}

// Dataset is a set of slices at a common resolution.
type Dataset struct {
	// Size is the square slice resolution after preprocessing.
	Size   int
	Slices []*Slice
}

// Build preprocesses every axial slice of the given volumes to the target
// resolution: bilinear downsample, 1%/99% contrast saturation and [-1, 1]
// rescale for the CT image (paper Section III-A); nearest-neighbor resample
// for the labels.
func Build(vols []*phantom.Volume, size int) *Dataset {
	d := &Dataset{Size: size}
	for _, v := range vols {
		nx, ny := v.CT.Nx, v.CT.Ny
		for z := 0; z < v.CT.Nz; z++ {
			raw := v.CT.Slice(z)
			img := imaging.Preprocess(raw, ny, nx, size)

			rawLab := v.Labels.Slice(z)
			lab8 := make([]uint8, len(rawLab))
			for i, f := range rawLab {
				lab8[i] = uint8(f)
			}
			lab := imaging.ResizeNearestLabels(lab8, ny, nx, size, size)

			s := &Slice{Patient: v.Patient, Z: z, Image: img, Labels: lab}
			for _, c := range lab {
				s.ClassPixels[c]++
			}
			d.Slices = append(d.Slices, s)
		}
	}
	return d
}

// Len returns the number of slices.
func (d *Dataset) Len() int { return len(d.Slices) }

// Patients returns the sorted unique patient IDs present.
func (d *Dataset) Patients() []int {
	seen := make(map[int]bool)
	var ids []int
	for _, s := range d.Slices {
		if !seen[s.Patient] {
			seen[s.Patient] = true
			ids = append(ids, s.Patient)
		}
	}
	// Insertion order is generation order; keep it stable by sorting.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// Split partitions the dataset by patient (never splitting one patient's
// slices across partitions) into train/val/test with the given fractions.
func (d *Dataset) Split(trainFrac, valFrac float64, seed int64) (train, val, test *Dataset) {
	if trainFrac < 0 || valFrac < 0 || trainFrac+valFrac > 1 {
		panic(fmt.Sprintf("ctorg: invalid split fractions %v/%v", trainFrac, valFrac))
	}
	ids := d.Patients()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nTrain := int(math.Round(trainFrac * float64(len(ids))))
	nVal := int(math.Round(valFrac * float64(len(ids))))
	if nTrain+nVal > len(ids) {
		nVal = len(ids) - nTrain
	}
	bucket := make(map[int]int, len(ids)) // 0 train, 1 val, 2 test
	for i, id := range ids {
		switch {
		case i < nTrain:
			bucket[id] = 0
		case i < nTrain+nVal:
			bucket[id] = 1
		default:
			bucket[id] = 2
		}
	}
	train = &Dataset{Size: d.Size}
	val = &Dataset{Size: d.Size}
	test = &Dataset{Size: d.Size}
	for _, s := range d.Slices {
		switch bucket[s.Patient] {
		case 0:
			train.Slices = append(train.Slices, s)
		case 1:
			val.Slices = append(val.Slices, s)
		default:
			test.Slices = append(test.Slices, s)
		}
	}
	return train, val, test
}

// Subset returns a dataset view containing the slices at the given indices.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := &Dataset{Size: d.Size}
	for _, i := range indices {
		out.Slices = append(out.Slices, d.Slices[i])
	}
	return out
}

// OrganFrequencies returns the fraction of labeled (non-background) pixels
// per organ class — Table I's statistic. Index 0 (background) is always 0.
func (d *Dataset) OrganFrequencies() [NumClasses]float64 {
	var counts [NumClasses]int64
	var total int64
	for _, s := range d.Slices {
		for c := 1; c < NumClasses; c++ {
			counts[c] += int64(s.ClassPixels[c])
			total += int64(s.ClassPixels[c])
		}
	}
	var out [NumClasses]float64
	if total == 0 {
		return out
	}
	for c := 1; c < NumClasses; c++ {
		out[c] = float64(counts[c]) / float64(total)
	}
	return out
}

// ClassPixelFractions returns the fraction of all pixels (background
// included) per class, used to derive the inverse-frequency loss weights of
// Section III-C.
func (d *Dataset) ClassPixelFractions() []float64 {
	counts := make([]int64, NumClasses)
	var total int64
	for _, s := range d.Slices {
		for c := 0; c < NumClasses; c++ {
			counts[c] += int64(s.ClassPixels[c])
			total += int64(s.ClassPixels[c])
		}
	}
	out := make([]float64, NumClasses)
	for c := range counts {
		out[c] = float64(counts[c]) / float64(total)
	}
	return out
}

// Batch assembles the slices at the given indices into an NCHW tensor and a
// flat label map suitable for the loss functions.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []uint8) {
	n := len(indices)
	hw := d.Size * d.Size
	x := tensor.New(n, 1, d.Size, d.Size)
	labels := make([]uint8, n*hw)
	for bi, idx := range indices {
		s := d.Slices[idx]
		copy(x.Data[bi*hw:(bi+1)*hw], s.Image)
		copy(labels[bi*hw:(bi+1)*hw], s.Labels)
	}
	return x, labels
}

// Images returns the slice images at the given indices as CHW tensors
// (single channel) — the calibration-set form consumed by the quantizer.
func (d *Dataset) Images(indices []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(indices))
	for i, idx := range indices {
		img := tensor.New(1, d.Size, d.Size)
		copy(img.Data, d.Slices[idx].Image)
		out[i] = img
	}
	return out
}
