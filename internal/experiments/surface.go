package experiments

import (
	"fmt"
	"io"
	"math"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/metrics"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

// surfaceDistance delegates to the metrics package (kept as a local alias
// so the accumulation loop reads naturally).
func surfaceDistance(pred, gt []uint8, size int, cls uint8) (float64, float64) {
	return metrics.SurfaceDistances(pred, gt, size, size, cls)
}

// SurfaceQualityRow reports boundary accuracy for one organ: mean
// 95th-percentile Hausdorff distance and mean average symmetric surface
// distance over test slices containing the organ, for both precisions.
type SurfaceQualityRow struct {
	Organ                  string
	HD95INT8, HD95FP32     float64
	ASSDINT8, ASSDFP32     float64
	SlicesEvaluated        int
	MissedINT8, MissedFP32 int // slices where the organ was entirely missed
}

// SurfaceQuality quantifies the paper's Section IV-D observation that the
// network is "more conservative when detecting the organs' edges": it
// measures boundary distances (HD95/ASSD) of the INT8 deployment against
// the FP32 model on every test slice.
func (e *Env) SurfaceQuality(w io.Writer, cfgName string) ([]SurfaceQualityRow, error) {
	base, err := unet.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	art, err := e.Trained(accuracyConfig(base, e.Scale))
	if err != nil {
		return nil, err
	}
	type acc struct {
		hd, assd  float64
		n, missed int
	}
	int8Acc := make([]acc, ctorg.NumClasses)
	fp32Acc := make([]acc, ctorg.NumClasses)

	fp32 := core.PredictFP32(art.Model)
	img := tensor.New(1, e.Test.Size, e.Test.Size)
	size := e.Test.Size
	for _, s := range e.Test.Slices {
		copy(img.Data, s.Image)
		int8Mask, err := art.Program.Run(img)
		if err != nil {
			return nil, err
		}
		fp32Mask, _ := fp32(img)
		for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
			if s.ClassPixels[cls] == 0 {
				continue
			}
			collect := func(mask []uint8, a *acc) {
				hd, assd := surfaceDistance(mask, s.Labels, size, cls)
				if math.IsInf(hd, 1) {
					a.missed++
					return
				}
				a.hd += hd
				a.assd += assd
				a.n++
			}
			collect(int8Mask, &int8Acc[cls])
			collect(fp32Mask, &fp32Acc[cls])
		}
	}
	var rows []SurfaceQualityRow
	fmt.Fprintf(w, "Surface quality — boundary distances, %s (pixels, lower is better)\n", cfgName)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %8s\n", "organ", "HD95 int8", "HD95 fp32", "ASSD int8", "ASSD fp32", "slices")
	for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
		ia, fa := int8Acc[cls], fp32Acc[cls]
		row := SurfaceQualityRow{
			Organ:           ctorg.ClassNames[cls],
			SlicesEvaluated: ia.n,
			MissedINT8:      ia.missed,
			MissedFP32:      fa.missed,
		}
		if ia.n > 0 {
			row.HD95INT8 = ia.hd / float64(ia.n)
			row.ASSDINT8 = ia.assd / float64(ia.n)
		}
		if fa.n > 0 {
			row.HD95FP32 = fa.hd / float64(fa.n)
			row.ASSDFP32 = fa.assd / float64(fa.n)
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %10.2f %10.2f %10.2f %10.2f %8d\n",
			row.Organ, row.HD95INT8, row.HD95FP32, row.ASSDINT8, row.ASSDFP32, row.SlicesEvaluated)
	}
	return rows, nil
}
