package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

// organPalette matches the paper's Figure 5 coloring: liver red, bladder
// green, lungs blue, kidneys yellow, bones white.
var organPalette = [ctorg.NumClasses][3]uint8{
	{0, 0, 0},       // background
	{220, 40, 40},   // liver
	{40, 200, 60},   // bladder
	{60, 90, 230},   // lungs
	{235, 220, 50},  // kidneys
	{245, 245, 245}, // bones
}

// Figure5Panel is one row of Figure 5: the input slice, the ground truth,
// the INT8 segmentation and the FP32 segmentation.
type Figure5Panel struct {
	SliceIndex int
	Input      []float32
	GT         []uint8
	INT8       []uint8
	FP32       []uint8
	Size       int
}

// Figure5 renders qualitative comparison panels for a handful of test
// slices that contain at least three organs, writing PPM images to dir
// (skipped if dir is empty) and a compact ASCII preview to w.
func (e *Env) Figure5(w io.Writer, bestName, dir string, panels int) ([]Figure5Panel, error) {
	cfg, err := unet.ConfigByName(bestName)
	if err != nil {
		return nil, err
	}
	art, err := e.Trained(accuracyConfig(cfg, e.Scale))
	if err != nil {
		return nil, err
	}
	var out []Figure5Panel
	fp32 := core.PredictFP32(art.Model)
	img := tensor.New(1, e.Test.Size, e.Test.Size)
	for i, s := range e.Test.Slices {
		if len(out) >= panels {
			break
		}
		organs := 0
		for c := 1; c < ctorg.NumClasses; c++ {
			if s.ClassPixels[c] > 8 {
				organs++
			}
		}
		if organs < 3 {
			continue
		}
		copy(img.Data, s.Image)
		int8Mask, err := art.Program.Run(img)
		if err != nil {
			return nil, err
		}
		fp32Mask, _ := fp32(img)
		p := Figure5Panel{
			SliceIndex: i,
			Input:      append([]float32(nil), s.Image...),
			GT:         append([]uint8(nil), s.Labels...),
			INT8:       int8Mask,
			FP32:       fp32Mask,
			Size:       e.Test.Size,
		}
		out = append(out, p)
	}
	fmt.Fprintf(w, "Figure 5 — qualitative panels (%d slices): input | GT | INT8 | FP32\n", len(out))
	for _, p := range out {
		writeASCIIPanel(w, p)
		if dir != "" {
			if err := writePPMPanel(dir, p); err != nil {
				return nil, err
			}
		}
	}
	if dir != "" {
		fmt.Fprintf(w, "PPM panels written to %s\n", dir)
	}
	return out, nil
}

// writeASCIIPanel draws a downsampled 4-pane row using one letter per organ.
func writeASCIIPanel(w io.Writer, p Figure5Panel) {
	const cols = 24
	glyph := [ctorg.NumClasses]byte{'.', 'L', 'b', 'O', 'k', '#'}
	step := p.Size / cols
	if step < 1 {
		step = 1
	}
	rows := p.Size / step
	fmt.Fprintf(w, "slice %d:\n", p.SliceIndex)
	for y := 0; y < rows; y++ {
		line := make([]byte, 0, 4*(cols+3))
		for _, mask := range [][]uint8{p.GT, p.INT8, p.FP32} {
			for x := 0; x < cols; x++ {
				c := mask[(y*step)*p.Size+x*step]
				line = append(line, glyph[c])
			}
			line = append(line, ' ', '|', ' ')
		}
		fmt.Fprintf(w, "  %s\n", line)
	}
}

// writePPMPanel writes the four panes side by side as one P6 PPM image.
func writePPMPanel(dir string, p Figure5Panel) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	size := p.Size
	gap := 2
	width := 4*size + 3*gap
	buf := make([]byte, 0, width*size*3)
	// Pane order matches the paper's Figure 5: input, ground truth, INT8
	// (SENECA), FP32. A nil mask means "render the gray input".
	panes := [][]uint8{nil, p.GT, p.INT8, p.FP32}
	for y := 0; y < size; y++ {
		for pi, mask := range panes {
			if pi > 0 {
				buf = appendGap(buf, gap)
			}
			for x := 0; x < size; x++ {
				if mask == nil {
					g := uint8((p.Input[y*size+x] + 1) * 127.5)
					buf = append(buf, g, g, g)
				} else {
					c := organPalette[mask[y*size+x]]
					buf = append(buf, c[0], c[1], c[2])
				}
			}
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("figure5_slice%04d.ppm", p.SliceIndex))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "P6\n%d %d\n255\n", width, size); err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	return f.Close()
}

func appendGap(buf []byte, gap int) []byte {
	for i := 0; i < gap; i++ {
		buf = append(buf, 128, 128, 128)
	}
	return buf
}
