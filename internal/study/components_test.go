package study

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// idx converts (x, y, z) to the flat x-fastest index used by nifti.Volume.
func idx(x, y, z, nx, ny int) int { return (z*ny+y)*nx + x }

func TestLargestComponentsKeepsBiggestIsland(t *testing.T) {
	const nx, ny, nz = 5, 4, 3
	labels := make([]uint8, nx*ny*nz)
	// Class 1: a 4-voxel bar on z=0 and a lone voxel on z=2 (not connected).
	for x := 0; x < 4; x++ {
		labels[idx(x, 0, 0, nx, ny)] = 1
	}
	labels[idx(4, 3, 2, nx, ny)] = 1
	// Class 2: two voxels stacked in z (connected through the z axis).
	labels[idx(2, 2, 0, nx, ny)] = 2
	labels[idx(2, 2, 1, nx, ny)] = 2

	removed := LargestComponents(labels, nx, ny, nz, 3)
	if removed[1] != 1 {
		t.Fatalf("class 1 removed %d voxels, want 1", removed[1])
	}
	if removed[2] != 0 {
		t.Fatalf("class 2 removed %d voxels, want 0", removed[2])
	}
	if labels[idx(4, 3, 2, nx, ny)] != 0 {
		t.Fatal("stray class-1 island survived")
	}
	for x := 0; x < 4; x++ {
		if labels[idx(x, 0, 0, nx, ny)] != 1 {
			t.Fatalf("largest class-1 component lost voxel x=%d", x)
		}
	}
	if labels[idx(2, 2, 0, nx, ny)] != 2 || labels[idx(2, 2, 1, nx, ny)] != 2 {
		t.Fatal("class-2 component damaged")
	}
}

func TestLargestComponentsDiagonalIsNotConnected(t *testing.T) {
	// Two voxels touching only at a corner are separate under
	// 6-connectivity; the filter must drop one of them.
	const nx, ny, nz = 3, 3, 1
	labels := make([]uint8, nx*ny*nz)
	labels[idx(0, 0, 0, nx, ny)] = 1
	labels[idx(1, 1, 0, nx, ny)] = 1
	removed := LargestComponents(labels, nx, ny, nz, 2)
	if removed[1] != 1 {
		t.Fatalf("removed %d voxels, want 1 (diagonal neighbors must not merge)", removed[1])
	}
	// Equal sizes: the first-seen component wins deterministically.
	if labels[idx(0, 0, 0, nx, ny)] != 1 || labels[idx(1, 1, 0, nx, ny)] != 0 {
		t.Fatalf("tie not broken deterministically: %v", labels)
	}
}

func TestLargestComponentsIgnoresBackgroundAndOutOfRange(t *testing.T) {
	const nx, ny, nz = 2, 2, 2
	labels := make([]uint8, nx*ny*nz)
	labels[0] = 9 // out of numClasses range: untouched, uncounted
	removed := LargestComponents(labels, nx, ny, nz, 3)
	for c, r := range removed {
		if r != 0 {
			t.Fatalf("class %d reports %d removed on a background volume", c, r)
		}
	}
	if labels[0] != 9 {
		t.Fatal("out-of-range label was modified")
	}
}

func TestLargestComponentsEmptyAndMismatched(t *testing.T) {
	if r := LargestComponents(nil, 0, 0, 0, 3); len(r) != 3 {
		t.Fatalf("empty volume: removed = %v", r)
	}
	// Length mismatch: no-op, no panic.
	labels := []uint8{1, 1}
	if r := LargestComponents(labels, 3, 3, 3, 2); r[1] != 0 {
		t.Fatalf("mismatched volume modified: %v", r)
	}
	// No classes: an empty count, nothing touched, no panic.
	for _, classes := range []int{0, -1} {
		labels := []uint8{1, 0, 1}
		if r := LargestComponents(labels, 3, 1, 1, classes); len(r) != 0 || labels[2] != 1 {
			t.Fatalf("%d classes: removed = %v, labels %v", classes, r, labels)
		}
	}
}

// volume is one differential case: a label volume, its geometry and the
// class count the filter is asked for.
type volume struct {
	name       string
	labels     []uint8
	nx, ny, nz int
	classes    int
}

// newVolume returns an all-background nx×ny×nz case.
func newVolume(name string, nx, ny, nz, classes int) volume {
	return volume{name: name, labels: make([]uint8, nx*ny*nz), nx: nx, ny: ny, nz: nz, classes: classes}
}

func (v volume) set(x, y, z int, c uint8) { v.labels[idx(x, y, z, v.nx, v.ny)] = c }

// randomVolume labels each voxel with probability density, drawing its class
// from [1, classes+1] so that some labels are out of range; stick is the
// chance a labelled voxel repeats its left neighbour's label, which sets the
// run length.
func randomVolume(name string, rng *rand.Rand, nx, ny, nz, classes int, density, stick float64) volume {
	v := newVolume(name, nx, ny, nz, classes)
	for i := range v.labels {
		switch {
		case rng.Float64() >= density:
		case i%nx > 0 && v.labels[i-1] != 0 && rng.Float64() < stick:
			v.labels[i] = v.labels[i-1]
		default:
			v.labels[i] = uint8(1 + rng.Intn(classes+1))
		}
	}
	return v
}

// matchesFlood runs LargestComponents and floodOracle on copies of v and
// fails unless the labels agree byte for byte and the removed counts exactly.
func matchesFlood(t *testing.T, v volume) {
	t.Helper()
	got, want := slices.Clone(v.labels), slices.Clone(v.labels)
	gotRemoved := LargestComponents(got, v.nx, v.ny, v.nz, v.classes)
	wantRemoved := floodOracle(want, v.nx, v.ny, v.nz, v.classes)
	if !slices.Equal(gotRemoved, wantRemoved) {
		t.Fatalf("%s: removed %v, flood fill %v", v.name, gotRemoved, wantRemoved)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: voxel %d is %d, flood fill %d", v.name, i, got[i], want[i])
		}
	}
}

// differentialCases is every hand-built case of TestLargestComponentsMatchesFlood.
func differentialCases() []volume {
	var vs []volume
	rng := rand.New(rand.NewSource(1))
	vs = append(vs,
		randomVolume("1x1x16", rng, 1, 1, 16, 2, 0.7, 0.3),
		randomVolume("16x1x1", rng, 16, 1, 1, 2, 0.7, 0.3),
		randomVolume("1x16x1", rng, 1, 16, 1, 2, 0.7, 0.3))

	one := newVolume("one class everywhere", 7, 5, 3, 2)
	for i := range one.labels {
		one.labels[i] = 1
	}
	vs = append(vs, one)
	checker := newVolume("two-class checkerboard", 6, 5, 4, 3)
	holes := newVolume("checkerboard on background", 6, 5, 4, 2)
	for z := range 4 {
		for y := range 5 {
			for x := range 6 {
				checker.set(x, y, z, uint8(1+(x+y+z)%2))
				holes.set(x, y, z, uint8((x+y+z)%2))
			}
		}
	}
	vs = append(vs, checker, holes)

	// A wall of 9s (out of range at 3 classes) at x=3 splits every row into
	// class-1 and class-2 runs on either side; nothing joins through it,
	// and the 9s stay.
	bridge := newVolume("out-of-range labels between runs", 7, 4, 2, 3)
	for z := range 2 {
		for y := range 4 {
			for x := range 7 {
				switch {
				case x == 3:
					bridge.set(x, y, z, 9)
				case x < 3 && y < 2, x > 3 && z == 1:
					bridge.set(x, y, z, 1)
				case y >= 2:
					bridge.set(x, y, z, 2)
				}
			}
		}
	}
	vs = append(vs, bridge)

	// A U: arms x=0 and x=4 on rows 0–3 meet only on row 4. A separate bar
	// of 8 beats either arm but not the joined U.
	u := newVolume("U joined in a later row", 9, 7, 1, 2)
	for y := range 4 {
		u.set(0, y, 0, 1)
		u.set(4, y, 0, 1)
	}
	for x := range 5 {
		u.set(x, 4, 0, 1)
	}
	for x := 1; x < 9; x++ {
		u.set(x, 6, 0, 1)
	}
	vs = append(vs, u)

	// Two arms in slice 0, bridged only by a bar in slice 1 above their
	// bottom voxels.
	uz := newVolume("U joined through z", 9, 6, 2, 2)
	for y := range 4 {
		uz.set(0, y, 0, 1)
		uz.set(4, y, 0, 1)
	}
	for x := range 5 {
		uz.set(x, 3, 1, 1)
	}
	for x := 1; x < 9; x++ {
		uz.set(x, 5, 0, 1)
	}
	vs = append(vs, uz)

	// Equal sizes: a column starting on row 1 at x=0 and a bar on row 0
	// further right; the bar's first voxel comes first, so it is kept.
	rowsTie := newVolume("equal sizes, first voxels in different rows", 8, 5, 1, 2)
	for y := 1; y < 5; y++ {
		rowsTie.set(0, y, 0, 1)
	}
	for x := 3; x < 7; x++ {
		rowsTie.set(x, 0, 0, 1)
	}
	// The same across slices: a bar low in slice 0, a column at the origin
	// of slice 1.
	slicesTie := newVolume("equal sizes, first voxels in different slices", 8, 5, 2, 2)
	for x := 3; x < 7; x++ {
		slicesTie.set(x, 4, 0, 1)
	}
	for y := range 4 {
		slicesTie.set(0, y, 1, 1)
	}
	// A U of 19 (arms x=0 and x=10, rows 0–3, joined on row 4) around a
	// block of 19 whose first run lies between the arms' on row 0. The U's
	// root must be its left arm's run: rooted at the right arm's, it would
	// come after the block's and lose the tie.
	merged := newVolume("equal sizes, one a merge of two roots", 11, 5, 1, 2)
	for y := range 4 {
		merged.set(0, y, 0, 1)
		merged.set(10, y, 0, 1)
	}
	for x := range 11 {
		merged.set(x, 4, 0, 1)
	}
	for x := 2; x < 9; x++ {
		merged.set(x, 0, 0, 1)
		merged.set(x, 1, 0, 1)
		if x < 7 {
			merged.set(x, 2, 0, 1)
		}
	}
	vs = append(vs, rowsTie, slicesTie, merged)

	for i, density := range []float64{0.05, 0.3, 0.5, 0.7, 0.9, 0.99} {
		vs = append(vs,
			randomVolume(fmt.Sprintf("random %.2f, short runs", density), rng, 10+i, 11, 5, 3, density, 0.2),
			randomVolume(fmt.Sprintf("random %.2f, long runs", density), rng, 16, 9+i, 4, 2, density, 0.9))
	}
	return vs
}

func TestLargestComponentsMatchesFlood(t *testing.T) {
	for _, v := range differentialCases() {
		matchesFlood(t, v)
	}
	// Seeded volumes the size of a few phantom slices.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		matchesFlood(t, randomVolume("random 64×48×6", rng, 64, 48, 6, 3, 0.6+0.1*float64(seed), 0.85))
	}
}

// TestLargestComponentsIsIdempotent checks what stagePostprocess's resume
// rule relies on: a second pass over a filtered volume removes nothing and
// changes no byte.
func TestLargestComponentsIsIdempotent(t *testing.T) {
	for _, v := range differentialCases() {
		LargestComponents(v.labels, v.nx, v.ny, v.nz, v.classes)
		once := slices.Clone(v.labels)
		removed := LargestComponents(v.labels, v.nx, v.ny, v.nz, v.classes)
		for c, n := range removed {
			if n != 0 {
				t.Fatalf("%s: second pass removed %d voxels of class %d", v.name, n, c)
			}
		}
		if !slices.Equal(v.labels, once) {
			t.Fatalf("%s: second pass changed the volume", v.name)
		}
	}
}

// FuzzLargestComponents compares LargestComponents with floodOracle on
// arbitrary volumes: the first four bytes give nx, ny and nz (1–16 each) and
// the class count (0–4), and the rest, repeated to fill the volume, the
// labels modulo classes+2, so that labels at and past the class count occur.
// The committed corpus holds every case of differentialCases in this
// encoding.
func FuzzLargestComponents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nx, ny, nz, classes := 1+int(data[0]%16), 1+int(data[1]%16), 1+int(data[2]%16), int(data[3]%5)
		v := newVolume("fuzz", nx, ny, nz, classes)
		if rest := data[4:]; len(rest) > 0 {
			for i := range v.labels {
				v.labels[i] = rest[i%len(rest)] % uint8(classes+2)
			}
		}
		matchesFlood(t, v)
	})
}

// floodOracle is the filter LargestComponents replaced, kept verbatim as the
// oracle of the differential tests: a raster-order sweep seeds a depth-first
// flood fill at every unassigned labelled voxel, giving each voxel an int32
// component id.
func floodOracle(labels []uint8, nx, ny, nz, numClasses int) []int64 {
	removed := make([]int64, numClasses)
	n := nx * ny * nz
	if len(labels) != n || n == 0 || numClasses <= 0 {
		return removed
	}

	// One flood-fill sweep assigns every labeled voxel a component id;
	// components never span classes because the fill only follows voxels
	// of the seed's class.
	comp := make([]int32, n) // 0 = unassigned/background, ids start at 1
	type compInfo struct {
		class uint8
		size  int64
	}
	comps := []compInfo{{}} // index 0 unused
	queue := make([]int32, 0, 1024)
	plane := nx * ny
	for seed := 0; seed < n; seed++ {
		if labels[seed] == 0 || comp[seed] != 0 {
			continue
		}
		class := labels[seed]
		id := int32(len(comps))
		comps = append(comps, compInfo{class: class})
		comp[seed] = id
		queue = append(queue[:0], int32(seed))
		var size int64
		for len(queue) > 0 {
			v := int(queue[len(queue)-1])
			queue = queue[:len(queue)-1]
			size++
			x := v % nx
			y := (v / nx) % ny
			// 6-connectivity: ±x, ±y, ±z.
			if x > 0 && comp[v-1] == 0 && labels[v-1] == class {
				comp[v-1] = id
				queue = append(queue, int32(v-1))
			}
			if x+1 < nx && comp[v+1] == 0 && labels[v+1] == class {
				comp[v+1] = id
				queue = append(queue, int32(v+1))
			}
			if y > 0 && comp[v-nx] == 0 && labels[v-nx] == class {
				comp[v-nx] = id
				queue = append(queue, int32(v-nx))
			}
			if y+1 < ny && comp[v+nx] == 0 && labels[v+nx] == class {
				comp[v+nx] = id
				queue = append(queue, int32(v+nx))
			}
			if v-plane >= 0 && comp[v-plane] == 0 && labels[v-plane] == class {
				comp[v-plane] = id
				queue = append(queue, int32(v-plane))
			}
			if v+plane < n && comp[v+plane] == 0 && labels[v+plane] == class {
				comp[v+plane] = id
				queue = append(queue, int32(v+plane))
			}
		}
		comps[id].size = size
	}

	// Pick the largest component per class (first wins ties, making the
	// filter deterministic), then clear everything else.
	best := make([]int32, numClasses)
	for id := 1; id < len(comps); id++ {
		c := comps[id]
		if int(c.class) >= numClasses {
			continue
		}
		if best[c.class] == 0 || c.size > comps[best[c.class]].size {
			best[c.class] = int32(id)
		}
	}
	for v := 0; v < n; v++ {
		class := labels[v]
		if class == 0 || int(class) >= numClasses {
			continue
		}
		if comp[v] != best[class] {
			labels[v] = 0
			removed[class]++
		}
	}
	return removed
}
