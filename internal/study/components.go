package study

import "slices"

// LargestComponents keeps, for every non-background class, only its largest
// 6-connected component in the nx×ny×nz label volume (x fastest, as in
// nifti.Volume) and clears every smaller island to background; of equal
// sizes, the component whose first voxel comes first in that order stays. It
// returns the per-class count of removed voxels, indexed by class (length
// numClasses, empty when numClasses ≤ 0; labels ≥ numClasses are left
// untouched and uncounted).
//
// This is the standard 3D cleanup for slice-wise segmentation: each axial
// slice is predicted independently, so spurious detections show up as small
// disconnected blobs that a whole-volume prior removes for free.
//
// Connectivity is between runs, not voxels: a run is a maximal stretch of
// one in-range class along a row, and a union-find joins it to the
// overlapping runs of its class one row (nx voxels) and one slice (nx·ny)
// before it. Memory is 12 bytes a run and 4 a row; the worst case, a
// two-class checkerboard, has a run per voxel. Runs hold int32 voxel
// indices, enough for any volume nifti.Read accepts (MaxVoxels is 2²⁸).
func LargestComponents(labels []uint8, nx, ny, nz, numClasses int) []int64 {
	removed := make([]int64, max(numClasses, 0))
	if numClasses <= 0 || nx <= 0 || ny <= 0 || nz <= 0 || len(labels) != nx*ny*nz {
		return removed
	}

	// Runs in raster order, so rowStart[r] is the first run of row r = z·ny+y.
	rows := ny * nz
	rowStart := make([]int32, rows+1)
	runs := make([]run, 0, 1024)
	for r := range rows {
		rowStart[r] = int32(len(runs))
		base := r * nx
		row := labels[base : base+nx]
		for x := 0; x < nx; {
			c, e := row[x], x+1
			for e < nx && row[e] == c {
				e++
			}
			if c != 0 && int(c) < numClasses {
				if len(runs) == cap(runs) { // doubling: append's 1.25× growth allocates ≈5× the runs
					runs = slices.Grow(runs, len(runs))
				}
				runs = append(runs, run{start: int32(base + x), end: int32(base + e), parent: int32(len(runs))})
			}
			x = e
		}
	}
	rowStart[rows] = int32(len(runs))

	for r := range rows {
		if r%ny > 0 {
			linkRows(runs, labels, rowStart[r], rowStart[r+1], rowStart[r-1], rowStart[r], int32(nx))
		}
		if r >= ny {
			linkRows(runs, labels, rowStart[r], rowStart[r+1], rowStart[r-ny], rowStart[r-ny+1], int32(nx*ny))
		}
	}

	// A root is its component's lowest run index, and every parent is lower
	// than its child, so one pass in index order flattens each run onto its
	// root and leaves a root holding minus its component's size.
	for i := range runs {
		n, p := runs[i].end-runs[i].start, runs[i].parent
		if p == int32(i) {
			runs[i].parent = -n
			continue
		}
		if runs[p].parent >= 0 {
			p = runs[p].parent
		}
		runs[i].parent = p
		runs[p].parent -= n
	}

	// Roots come in the order of their components' first voxels, the order
	// a raster-order flood fill would find them in, so replacing a class's
	// pick only on a strictly larger size keeps the first of equal sizes. A
	// run stays when it is its class's pick or its parent is.
	best := slices.Repeat([]int32{-1}, numClasses)
	for i, rn := range runs {
		if c := labels[rn.start]; rn.parent < 0 && (best[c] < 0 || rn.parent < runs[best[c]].parent) {
			best[c] = int32(i)
		}
	}
	for i, rn := range runs {
		if c := labels[rn.start]; int32(i) != best[c] && rn.parent != best[c] {
			removed[c] += int64(rn.end - rn.start)
			clear(labels[rn.start:rn.end])
		}
	}
	return removed
}

// run is a row run [start, end) of one class. parent is its union-find parent,
// a lower index, until the sizing pass sets a root's to minus its size.
type run struct {
	start, end, parent int32
}

// linkRows joins every run of [a, aEnd) to the runs of [b, bEnd), a row off
// voxels before, that it overlaps and that have its class, under the lower
// of the two roots.
func linkRows(runs []run, labels []uint8, a, aEnd, b, bEnd, off int32) {
	for a < aEnd && b < bEnd {
		ae, be := runs[a].end, runs[b].end+off
		if runs[a].start < be && runs[b].start+off < ae && labels[runs[a].start] == labels[runs[b].start] {
			i, j := find(runs, a), find(runs, b)
			runs[max(i, j)].parent = min(i, j)
		}
		if ae <= be {
			a++
		}
		if be <= ae {
			b++
		}
	}
}

// find returns the root of run i, halving the path it walks.
func find(runs []run, i int32) int32 {
	for runs[i].parent != i {
		runs[i].parent = runs[runs[i].parent].parent
		i = runs[i].parent
	}
	return i
}
