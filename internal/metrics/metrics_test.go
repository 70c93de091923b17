package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDicePerfectAndDisjoint(t *testing.T) {
	c := NewConfusion(3)
	pred := []uint8{0, 1, 1, 2}
	c.Add(pred, pred)
	for cls := 0; cls < 3; cls++ {
		if d := c.Dice(cls); d != 1 {
			t.Fatalf("perfect Dice[%d] = %v", cls, d)
		}
	}
	c2 := NewConfusion(2)
	c2.Add([]uint8{1, 1}, []uint8{0, 0})
	if d := c2.Dice(1); d != 0 {
		t.Fatalf("disjoint Dice = %v", d)
	}
}

func TestDiceHandComputed(t *testing.T) {
	// pred: [1 1 0 0], gt: [1 0 1 0] for class 1: TP=1, FP=1, FN=1 →
	// Dice = 2/(2+1+1) = 0.5.
	c := NewConfusion(2)
	c.Add([]uint8{1, 1, 0, 0}, []uint8{1, 0, 1, 0})
	if d := c.Dice(1); d != 0.5 {
		t.Fatalf("Dice = %v, want 0.5", d)
	}
	if r := c.Recall(1); r != 0.5 {
		t.Fatalf("Recall = %v, want 0.5", r)
	}
	// class 1: TN = pixels neither predicted nor labeled 1 = 1; FP = 1.
	if s := c.Specificity(1); s != 0.5 {
		t.Fatalf("Specificity = %v, want 0.5", s)
	}
}

func TestAbsentClassScoresOne(t *testing.T) {
	c := NewConfusion(4)
	c.Add([]uint8{0, 1}, []uint8{0, 1})
	if d := c.Dice(3); d != 1 {
		t.Fatalf("absent class Dice = %v", d)
	}
}

func TestDiceSymmetryProperty(t *testing.T) {
	// Dice(pred, gt) == Dice(gt, pred) for every class.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		a := make([]uint8, n)
		b := make([]uint8, n)
		for i := range a {
			a[i] = uint8(rng.Intn(3))
			b[i] = uint8(rng.Intn(3))
		}
		c1 := NewConfusion(3)
		c1.Add(a, b)
		c2 := NewConfusion(3)
		c2.Add(b, a)
		for cls := 0; cls < 3; cls++ {
			if math.Abs(c1.Dice(cls)-c2.Dice(cls)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiceBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		a := make([]uint8, n)
		b := make([]uint8, n)
		for i := range a {
			a[i] = uint8(rng.Intn(4))
			b[i] = uint8(rng.Intn(4))
		}
		c := NewConfusion(4)
		c.Add(a, b)
		for cls := 0; cls < 4; cls++ {
			for _, v := range []float64{c.Dice(cls), c.Recall(cls), c.Specificity(cls), c.GlobalDice()} {
				if v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionCountsConserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1000
	pred := make([]uint8, n)
	gt := make([]uint8, n)
	for i := range pred {
		pred[i] = uint8(rng.Intn(5))
		gt[i] = uint8(rng.Intn(5))
	}
	c := NewConfusion(5)
	c.Add(pred, gt)
	for cls := 0; cls < 5; cls++ {
		if c.TP[cls]+c.FP[cls]+c.FN[cls]+c.TN[cls] != int64(n) {
			t.Fatalf("class %d counts do not sum to n", cls)
		}
	}
	// Σ TP + Σ FP = n (every pixel predicted exactly one class).
	var tp, fp int64
	for cls := 0; cls < 5; cls++ {
		tp += c.TP[cls]
		fp += c.FP[cls]
	}
	if tp+fp != int64(n) {
		t.Fatalf("ΣTP+ΣFP = %d, want %d", tp+fp, n)
	}
}

// TestIncrementalAddMatchesOneShot is the regression test for the TN
// accumulation bug: Add derived TN from the *cumulative* TP/FP/FN counters,
// so from the second call on every earlier pair's positives were subtracted
// from the current pair's pixel total — TN drifted low and could go
// negative. Adding pairs one at a time must equal adding their
// concatenation in a single call.
func TestIncrementalAddMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const classes, pairs, n = 5, 7, 400
	inc := NewConfusion(classes)
	oneShot := NewConfusion(classes)
	var allPred, allGT []uint8
	for p := 0; p < pairs; p++ {
		pred := make([]uint8, n)
		gt := make([]uint8, n)
		for i := range pred {
			pred[i] = uint8(rng.Intn(classes))
			gt[i] = uint8(rng.Intn(classes))
		}
		inc.Add(pred, gt)
		allPred = append(allPred, pred...)
		allGT = append(allGT, gt...)
	}
	oneShot.Add(allPred, allGT)
	for cls := 0; cls < classes; cls++ {
		if inc.TN[cls] < 0 {
			t.Fatalf("class %d: negative TN %d after incremental adds", cls, inc.TN[cls])
		}
		if inc.TP[cls] != oneShot.TP[cls] || inc.FP[cls] != oneShot.FP[cls] ||
			inc.FN[cls] != oneShot.FN[cls] || inc.TN[cls] != oneShot.TN[cls] {
			t.Fatalf("class %d: incremental (TP %d FP %d FN %d TN %d) != one-shot (TP %d FP %d FN %d TN %d)",
				cls, inc.TP[cls], inc.FP[cls], inc.FN[cls], inc.TN[cls],
				oneShot.TP[cls], oneShot.FP[cls], oneShot.FN[cls], oneShot.TN[cls])
		}
		if sum := inc.TP[cls] + inc.FP[cls] + inc.FN[cls] + inc.TN[cls]; sum != pairs*n {
			t.Fatalf("class %d: counts sum to %d, want %d", cls, sum, pairs*n)
		}
	}
}

func TestGlobalDiceWeighting(t *testing.T) {
	// Class 1 has 90 gt pixels at Dice 1, class 2 has 10 gt pixels at
	// Dice 0 → global = 0.9.
	c := NewConfusion(3)
	gt := make([]uint8, 100)
	pred := make([]uint8, 100)
	for i := 0; i < 90; i++ {
		gt[i] = 1
		pred[i] = 1
	}
	for i := 90; i < 100; i++ {
		gt[i] = 2
		pred[i] = 0
	}
	c.Add(pred, gt)
	if g := c.GlobalDice(); math.Abs(g-0.9) > 1e-9 {
		t.Fatalf("GlobalDice = %v, want 0.9", g)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 || math.Abs(s.Std-2) > 1e-12 || s.N != 8 {
		t.Fatalf("Summarize = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
	if got := s.String(); got != "5.00±2.00" {
		t.Fatalf("String = %q", got)
	}
}

func TestBoxplot(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := Boxplot(vals)
	if b.Min != 1 || b.Max != 100 {
		t.Fatalf("min/max %v/%v", b.Min, b.Max)
	}
	if b.Median != 5.5 {
		t.Fatalf("median %v", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers %v", b.Outliers)
	}
	if b.WhiskerHigh >= 100 || b.WhiskerHigh < 9 {
		t.Fatalf("upper whisker %v", b.WhiskerHigh)
	}
	if b.Q1 >= b.Median || b.Median >= b.Q3 {
		t.Fatalf("quartiles out of order: %+v", b)
	}
}

func TestBoxplotOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		b := Boxplot(vals)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.WhiskerLow <= b.WhiskerHigh || len(vals) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
