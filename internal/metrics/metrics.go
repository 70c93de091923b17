// Package metrics implements the evaluation metrics of paper Section IV-A2:
// the Dice Similarity Coefficient (Eq. 4), Recall/TPR (Eq. 5) and
// Specificity/TNR (Eq. 6), their per-organ and frequency-weighted global
// aggregations, run statistics (µ ± σ as reported in Tables IV–V), and the
// boxplot statistics of Figure 6.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Confusion accumulates per-class pixel confusion counts over any number of
// prediction/ground-truth pairs.
type Confusion struct {
	NumClasses     int
	TP, FP, FN, TN []int64
}

// NewConfusion allocates a confusion accumulator for n classes.
func NewConfusion(n int) *Confusion {
	return &Confusion{
		NumClasses: n,
		TP:         make([]int64, n),
		FP:         make([]int64, n),
		FN:         make([]int64, n),
		TN:         make([]int64, n),
	}
}

// Add accumulates one prediction/ground-truth pair of equal-length label
// maps.
func (c *Confusion) Add(pred, gt []uint8) {
	if len(pred) != len(gt) {
		panic(fmt.Sprintf("metrics: prediction length %d vs ground truth %d", len(pred), len(gt)))
	}
	n := int64(len(pred))
	// Count this pair's TP/FP/FN in one pass; TN follows from the pair's
	// own totals. The deltas must come from this call alone — deriving TN
	// from the cumulative counters counts every earlier pair's positives
	// against this pair's pixel total, understating TN more with each call
	// (and eventually driving it negative).
	dTP := make([]int64, c.NumClasses)
	dFP := make([]int64, c.NumClasses)
	dFN := make([]int64, c.NumClasses)
	for i := range pred {
		p, g := pred[i], gt[i]
		if p == g {
			dTP[p]++
		} else {
			dFP[p]++
			dFN[g]++
		}
	}
	for cls := 0; cls < c.NumClasses; cls++ {
		c.TP[cls] += dTP[cls]
		c.FP[cls] += dFP[cls]
		c.FN[cls] += dFN[cls]
		c.TN[cls] += n - dTP[cls] - dFP[cls] - dFN[cls]
	}
}

// Dice returns the Dice Similarity Coefficient of one class (paper Eq. 4):
// 2|P∩G| / (|P|+|G|) = 2TP/(2TP+FP+FN). Classes absent from both prediction
// and ground truth score 1 (perfect vacuous agreement).
func (c *Confusion) Dice(class int) float64 {
	den := 2*c.TP[class] + c.FP[class] + c.FN[class]
	if den == 0 {
		return 1
	}
	return float64(2*c.TP[class]) / float64(den)
}

// Recall returns the True Positive Rate of one class (paper Eq. 5):
// |P∩G|/|G| = TP/(TP+FN).
func (c *Confusion) Recall(class int) float64 {
	den := c.TP[class] + c.FN[class]
	if den == 0 {
		return 1
	}
	return float64(c.TP[class]) / float64(den)
}

// Specificity returns the True Negative Rate of one class: TN/(TN+FP).
// (Paper Eq. 6 prints the denominator as |Gᶜ∩P|, a typo for |Gᶜ|; the
// standard definition is used here.)
func (c *Confusion) Specificity(class int) float64 {
	den := c.TN[class] + c.FP[class]
	if den == 0 {
		return 1
	}
	return float64(c.TN[class]) / float64(den)
}

// GlobalDice returns the frequency-weighted mean of per-organ Dice scores —
// the paper's "global DSC", which weights each organ by its ground-truth
// pixel frequency (Section IV-C). Class 0 (background) is excluded.
func (c *Confusion) GlobalDice() float64 {
	var wsum, acc float64
	for cls := 1; cls < c.NumClasses; cls++ {
		w := float64(c.TP[cls] + c.FN[cls]) // ground-truth pixel count
		if w == 0 {
			continue
		}
		acc += w * c.Dice(cls)
		wsum += w
	}
	if wsum == 0 {
		return 1
	}
	return acc / wsum
}

// GlobalRecall returns the frequency-weighted mean per-organ recall — the
// paper's "global sensitivity" (93.06% for SENECA).
func (c *Confusion) GlobalRecall() float64 {
	var wsum, acc float64
	for cls := 1; cls < c.NumClasses; cls++ {
		w := float64(c.TP[cls] + c.FN[cls])
		if w == 0 {
			continue
		}
		acc += w * c.Recall(cls)
		wsum += w
	}
	if wsum == 0 {
		return 1
	}
	return acc / wsum
}

// GlobalSpecificity returns the frequency-weighted mean per-organ
// specificity — the paper's "global TNR" (99.75% for SENECA).
func (c *Confusion) GlobalSpecificity() float64 {
	var wsum, acc float64
	for cls := 1; cls < c.NumClasses; cls++ {
		w := float64(c.TP[cls] + c.FN[cls])
		if w == 0 {
			continue
		}
		acc += w * c.Specificity(cls)
		wsum += w
	}
	if wsum == 0 {
		return 1
	}
	return acc / wsum
}

// Summary is a mean ± standard deviation pair, the form Tables IV and V
// report.
type Summary struct {
	Mean, Std float64
	N         int
}

// String renders "mean±std".
func (s Summary) String() string { return fmt.Sprintf("%.2f±%.2f", s.Mean, s.Std) }

// Summarize computes the sample mean and (population) standard deviation.
func Summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	var sq float64
	for _, v := range vals {
		d := v - mean
		sq += d * d
	}
	return Summary{Mean: mean, Std: math.Sqrt(sq / float64(n)), N: n}
}

// BoxStats holds the five-number summary plus Tukey whiskers used to draw
// the Figure 6 per-organ Dice boxplots.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLow, WhiskerHigh  float64
	Outliers                 []float64
}

// Boxplot computes boxplot statistics with 1.5·IQR Tukey whiskers.
func Boxplot(vals []float64) BoxStats {
	if len(vals) == 0 {
		return BoxStats{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	b := BoxStats{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
	iqr := b.Q3 - b.Q1
	lo := b.Q1 - 1.5*iqr
	hi := b.Q3 + 1.5*iqr
	b.WhiskerLow, b.WhiskerHigh = b.Max, b.Min
	for _, v := range s {
		if v >= lo && v < b.WhiskerLow {
			b.WhiskerLow = v
		}
		if v <= hi && v > b.WhiskerHigh {
			b.WhiskerHigh = v
		}
		if v < lo || v > hi {
			b.Outliers = append(b.Outliers, v)
		}
	}
	return b
}

func quantileSorted(s []float64, q float64) float64 {
	idx := q * float64(len(s)-1)
	i := int(idx)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := idx - float64(i)
	// (1−t)·a + t·b form: the difference form a+(b−a)·t overflows when a and
	// b straddle ±MaxFloat64/2.
	return s[i]*(1-frac) + s[i+1]*frac
}
