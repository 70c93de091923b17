package quant

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/imaging"
	"seneca/internal/par"
	"seneca/internal/phantom"
	"seneca/internal/unet"
)

// withBody runs f with the dispatch pinned to body b, which is how the tests
// reach every body this host can run rather than only the best. No test in
// this package runs in parallel.
func withBody(b int, f func()) {
	prev := body
	body = b
	defer func() { body = prev }()
	f()
}

// hostBodies lists the bodies this host can run: every body up to the one
// init picked, since each assembly body's host can run the ones before it.
func hostBodies() []int {
	var bodies []int
	for b := portable; b <= body; b++ {
		bodies = append(bodies, b)
	}
	return bodies
}

// hostBodyNames is hostBodies by KernelISA's names.
func hostBodyNames() (names []string) {
	for _, b := range hostBodies() {
		withBody(b, func() { names = append(names, KernelISA()) })
	}
	return names
}

// TestKernelISAMatchesCPU names the body that ran: where the kernel lists
// avx512f, avx512vl and avx512_vnni among the CPU's flags the dispatch must
// have picked the VNNI body, and where it lists avx2 the AVX2 body, so a
// detection bug cannot fall back to a slower body and still pass.
func TestKernelISAMatchesCPU(t *testing.T) {
	want := "portable"
	if runtime.GOARCH == "amd64" {
		info, err := os.ReadFile("/proc/cpuinfo")
		if err != nil {
			t.Skipf("no independent source for the CPU's features: %v", err)
		}
		has := func(flag string) bool {
			return regexp.MustCompile(`(?m)^flags\s*:.*\b` + flag + `\b`).Match(info)
		}
		switch {
		case has("avx512f") && has("avx512vl") && has("avx512_vnni"):
			want = "avx512vnni"
		case has("avx2"):
			want = "avx2"
		}
	}
	if got := KernelISA(); got != want {
		t.Fatalf("KernelISA() = %q on a host where /proc/cpuinfo implies %q", got, want)
	}
	t.Logf("INT8 kernels ran the %s body; this host can run %v", KernelISA(), hostBodyNames())
}

// TestBodiesAgreeOnUNetShapes runs every convolution and transpose
// convolution of every Table II configuration at 64×64, of the 1M U-Net at
// the paper's 256×256 and of the 16×16 tiny net the front-door benchmark
// serves, with the layer's own weights, biases and shifts and a random
// input, through every body this host can run, each held to the portable
// one.
func TestBodiesAgreeOnUNetShapes(t *testing.T) {
	if body == portable {
		t.Skip("one body on this host")
	}
	t.Logf("comparing the %v bodies", hostBodyNames())
	type net struct {
		cfg  unet.Config
		size int
	}
	nets := []net{
		{unet.TableII()[0], 256},
		{unet.Config{Name: "tiny", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, Seed: 2}, 16},
	}
	for _, cfg := range unet.TableII() {
		nets = append(nets, net{cfg, 64})
	}
	rng := rand.New(rand.NewSource(15))
	for _, nt := range nets {
		q, err := QuantizeShapeOnly(unet.New(nt.cfg).Export(nt.size, nt.size))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range q.Nodes {
			if n.Kind != graph.KindConv && n.Kind != graph.KindConvTranspose {
				continue
			}
			in := q.Node(n.Inputs[0])
			h, w := in.OutShape[1], in.OutShape[2]
			oh, ow := n.OutShape[1], n.OutShape[2]
			src := randInt8s(rng, n.InC*h*w)
			shift := RequantShift(in.OutFP+n.WeightFP, n.OutFP)
			run := func() []int8 {
				return runInt8(t, n.Kind, src, n.InC, h, w, n.Weight, n.Bias, n.OutC, n.Kernel, n.Stride, n.Pad, shift, 1, n.FusedReLU, oh, ow, testGeom{outBorder: 1})
			}
			var want []int8
			withBody(portable, func() { want = run() })
			for _, b := range hostBodies()[1:] {
				withBody(b, func() {
					sameInt8s(t, fmt.Sprintf("%s@%d/%s %s", nt.cfg.Name, nt.size, n.Name, KernelISA()), run(), want)
				})
			}
		}
	}
}

// TestTileWidthsAgainstReference is the width table for partial and packed
// tiles: convolutions (k 1 and 3) and stride-2 transpose convolutions (k 2
// to 4) at every output width from 1 to 40 — one tile short, whole, and one
// and two tiles and a bit, at both bodies' widths — over three input rows,
// then every output height and width from 1 to 9 for convolutions at k 1
// and 3 and the U-Net's 3×3 stride-2 transpose convolution, so every packed
// shape's last row group also ends part-way through the plane; each over
// lane blocks of 1, 6, 8 and 9 output channels, with and without ReLU and a
// fused second shift, through every body this host can run, each held to
// the reference kernel; runInt8 checks that nothing outside the node's
// planes and interior is written. Then each body's write-back alone, for
// every tile shape it has, every row count and every valid-pixel count of a
// row, at steps 1 to 3: exactly the n cells of each row of each lane pair
// at the step are written, with finalizeInt8's values, and every other cell
// keeps a sentinel — which is what keeps one phase's tile off its
// neighbours' cells and a row group's tile off the rows past the plane.
func TestTileWidthsAgainstReference(t *testing.T) {
	t.Logf("bodies %v", hostBodyNames())
	rng := rand.New(rand.NewSource(33))
	type layer struct {
		kind                 graph.Kind
		k, pad, h, w, oh, ow int
	}
	var layers []layer
	for ow := 1; ow <= 40; ow++ {
		layers = append(layers, layer{graph.KindConv, 1, 0, 3, ow, 3, ow}, layer{graph.KindConv, 3, 1, 3, ow, 3, ow})
		// Output width (w−1)·2 − 2·pad + k + outPad: the first pad and
		// output padding that give ow from a whole input row.
	dconv:
		for k := 2; k <= 4; k++ {
			for pad := 0; pad < k; pad++ {
				for op := 0; op < 2; op++ {
					if d := ow - k - op + 2*pad; d >= 0 && d%2 == 0 {
						layers = append(layers, layer{graph.KindConvTranspose, k, pad, 3, d/2 + 1, 4 - 2*pad + k + op, ow})
						continue dconv
					}
				}
			}
		}
	}
	for oh := 1; oh <= 9; oh++ {
		for ow := 1; ow <= 9; ow++ {
			// At k 3, pad 1 and stride 2, (n+1)/2 inputs give n outputs
			// under an output padding of 1 − n%2 on the axis.
			layers = append(layers, layer{graph.KindConv, 1, 0, oh, ow, oh, ow}, layer{graph.KindConv, 3, 1, oh, ow, oh, ow},
				layer{graph.KindConvTranspose, 3, 1, (oh + 1) / 2, (ow + 1) / 2, oh, ow})
		}
	}
	const c, shift = 3, 6
	ran := map[[3]int]bool{} // body, rows and width of each tile shape run, for the log
	for _, l := range layers {
		stride := 1
		if l.kind == graph.KindConvTranspose {
			stride = 2
		}
		for _, b := range hostBodies() {
			for a := 0; a < stride; a++ {
				if nx := phaseLen(l.ow, stride, a); nx > 0 {
					width, rows := tileShape(b, nx)
					ran[[3]int{b, rows, width}] = true
				}
			}
		}
		for _, outC := range []int{1, 6, 8, 9} {
			src, weight := randInt8s(rng, c*l.h*l.w), randInt8s(rng, outC*c*l.k*l.k)
			bias := make([]int32, outC)
			for i := range bias {
				bias[i] = int32(rng.Intn(6001) - 3000)
			}
			for _, relu := range []bool{false, true} {
				for _, shift2 := range []int{0, 2} {
					name := fmt.Sprintf("%v k%d pad%d %dx%d→%dx%d outC%d relu=%v shift2=%d", l.kind, l.k, l.pad, l.h, l.w, l.oh, l.ow, outC, relu, shift2)
					var want []int8
					if l.kind == graph.KindConv {
						want = refConvInt8(src, c, l.h, l.w, weight, bias, outC, l.k, 1, l.pad, shift, shift2, relu, l.oh, l.ow, Bits8)
					} else {
						want = refConvTransposeInt8(src, c, l.h, l.w, weight, bias, outC, l.k, 2, l.pad, shift, shift2, relu, l.oh, l.ow, Bits8)
					}
					for _, b := range hostBodies() {
						withBody(b, func() {
							got := runInt8(t, l.kind, src, c, l.h, l.w, weight, bias, outC, l.k, stride, l.pad, shift, shift2, relu, l.oh, l.ow, testGeom{outBorder: 1, planeOff: 1})
							sameInt8s(t, KernelISA()+" "+name, got, want)
						})
					}
				}
			}
		}
	}
	// Every body's shapes, whole-row and packed, and which of them ran: a
	// host without a body's instructions runs none of its shapes.
	for b := range tileWidths {
		var shapes, missed []string
		for width := tileWidths[b]; width >= minTileRow; width /= 2 {
			shape := fmt.Sprintf("%d×%d", tileWidths[b]/width, width)
			if ran[[3]int{b, tileWidths[b] / width, width}] {
				shapes = append(shapes, shape)
			} else {
				missed = append(missed, shape)
			}
		}
		var isa string
		withBody(b, func() { isa = KernelISA() })
		t.Logf("%s body: ran tiles %v, unexercised %v", isa, shapes, missed)
	}
	const sentinel = 0x5a5a5a5a
	const rowStride = 3*maxTileWidth + 5
	const planeStride = 4*rowStride + 7
	for _, b := range hostBodies() {
		full := tileWidths[b]
		for width := full; width >= minTileRow; width /= 2 {
			for rows := 1; rows <= full/width; rows++ {
				for _, step := range []int{1, 2, 3} {
					for n := 1; n <= width; n++ {
						for _, lanes := range []int{1, 2, 6, 7, 8} {
							for _, relu := range []bool{false, true} {
								for _, shift2 := range []int{0, 3} {
									var acc [tileSize]int32
									for i := range acc {
										acc[i] = int32(rng.Intn(1<<21) - 1<<20)
									}
									bias := make([]int32, lanes)
									for i := range bias {
										bias[i] = int32(rng.Intn(1<<17) - 1<<16)
									}
									dst := make([]int32, 5*planeStride)
									for i := range dst {
										dst[i] = sentinel
									}
									want := slices.Clone(dst)
									for p := 0; p < (lanes+1)/2; p++ {
										for r := 0; r < rows; r++ {
											for q := r * width; q < r*width+n; q++ {
												var hi int8
												if 2*p+1 < lanes {
													hi = refFinalize(acc[(2*p+1)*full+q], bias[2*p+1], relu, 9, shift2, Bits8)
												}
												want[p*planeStride+r*rowStride+(q-r*width)*step] = pairCell(refFinalize(acc[2*p*full+q], bias[2*p], relu, 9, shift2, Bits8), hi)
											}
										}
									}
									withBody(b, func() {
										finalizeTile(&acc, bias, lanes, relu, 9, shift2, b != portable, dst, planeStride, rowStride, step, width, rows, n)
									})
									for i := range want {
										if dst[i] != want[i] {
											t.Fatalf("%s write-back %d×%d step %d rows %d n %d lanes %d relu=%v shift2=%d: cell %d = %#x, want %#x",
												hostBodyNames()[b], full/width, width, step, rows, n, lanes, relu, shift2, i, dst[i], want[i])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// sameAsPortable holds run under every body this host can run to run under
// the portable body, element for element: the plain loops are the oracle
// the element-wise passes' assembly is held to.
func sameAsPortable[T comparable](t *testing.T, what string, run func() []T) {
	t.Helper()
	var want []T
	withBody(portable, func() { want = run() })
	for _, b := range hostBodies()[1:] {
		withBody(b, func() {
			got := run()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d elements, want %d", KernelISA(), what, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: element %d = %v, want %v", KernelISA(), what, i, got[i], want[i])
				}
			}
		})
	}
}

// cellPassInt8s draws n int8 values: random (fill 0), from a few values
// including both extremes so ties are everywhere (1), or one value
// throughout, an all-tie plane (2).
func cellPassInt8s(rng *rand.Rand, n, fill int) []int8 {
	s := randInt8s(rng, n)
	few := []int8{-128, -127, 0, 126, 127}
	one := few[rng.Intn(len(few))]
	for i := range s {
		switch fill {
		case 1:
			s[i] = few[rng.Intn(len(few))]
		case 2:
			s[i] = one
		}
	}
	return s
}

// quantizeProbes is the input quantisation's test set at fix position fp:
// every float32 within 2 ULPs of a half-integer in [−129, 128] after
// scaling, where rounding turns; NaNs of both signs with payloads, quiet and
// signalling; ±Inf, ±0, subnormals, the normal extremes; and n random bit
// patterns.
func quantizeProbes(rng *rand.Rand, fp FixPos, n int) []float32 {
	var s []float32
	for k := -129; k < 128; k++ {
		x := float32((float64(k) + 0.5) / math.Pow(2, float64(fp)))
		down, up := math.Nextafter32(x, float32(math.Inf(-1))), math.Nextafter32(x, float32(math.Inf(1)))
		s = append(s, math.Nextafter32(down, float32(math.Inf(-1))), down, x, up, math.Nextafter32(up, float32(math.Inf(1))))
	}
	for _, b := range []uint32{
		0x7fc00000, 0x7fc00001, 0x7fffffff, 0x7f800001, 0x7fa5a5a5, 0xffc00000, 0xffffffff, 0xff800001, // NaNs
		0x7f800000, 0xff800000, 0, 0x80000000, // ±Inf, ±0
		1, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // the smallest and largest normals
	} {
		s = append(s, math.Float32frombits(b))
	}
	for i := 0; i < n; i++ {
		s = append(s, math.Float32frombits(rng.Uint32()))
	}
	return s
}

// TestCellPassesAgainstPortable holds each element-wise pass, under every
// body this host can run, to its plain loop byte for byte — output borders
// included, which no pass may write — at row lengths from under one vector
// of eight to five and a bit, so both an assembly routine and the loop that
// finishes its row run: argmax at 1 to 9 classes over random planes, planes
// of ties at the int8 extremes and all-tie planes, 1 to 3 rows of 1 to 40
// pixels; max-pool at output widths 1 to 40 over 1, 2, 3 and 8 channels,
// input heights 2, 3 and 5, odd input widths where the output width is odd,
// and every shift from −2 to 3; the input quantisation at fix positions −3
// to 12 over quantizeProbes, on one, two and three channels, rows of 37 and
// of 40 pixels (all whole vectors).
func TestCellPassesAgainstPortable(t *testing.T) {
	if body == portable {
		t.Skip("one body on this host")
	}
	t.Logf("comparing the %v bodies", hostBodyNames())
	rng := rand.New(rand.NewSource(40))
	for c := 1; c <= 9; c++ {
		for h := 1; h <= 3; h++ {
			for w := 1; w <= 40; w++ {
				for fill := 0; fill < 3; fill++ {
					a := planeOf(cellPassInt8s(rng, c*h*w, fill), c, h, w)
					sameAsPortable(t, fmt.Sprintf("argmax c%d %dx%d fill %d", c, h, w, fill), func() []uint8 {
						return argmaxChannelsInt8(a)
					})
				}
			}
		}
	}
	for ow := 1; ow <= 40; ow++ {
		iw := 2*ow + ow%2
		for _, c := range []int{1, 2, 3, 8} {
			for _, ih := range []int{2, 3, 5} {
				in := planeOf(cellPassInt8s(rng, c*ih*iw, ow%2), c, ih, iw)
				for shift := -2; shift <= 3; shift++ {
					sameAsPortable(t, fmt.Sprintf("max-pool c%d %dx%d shift %d", c, ih, iw, shift), func() []int32 {
						out := newPlane(c, ih/2, ow, 1, 0)
						maxPoolInt8(in, shift, out)
						return out.cells
					})
				}
			}
		}
	}
	for fp := FixPos(-3); fp <= 12; fp++ {
		src := quantizeProbes(rng, fp, 1<<16)
		for _, c := range []int{1, 2, 3} {
			for _, w := range []int{37, 40} {
				h := (len(src) + c*w - 1) / (c * w)
				img := make([]float32, c*h*w)
				copy(img, src)
				sameAsPortable(t, fmt.Sprintf("quantize fp %d c%d w%d", fp, c, w), func() []int32 {
					a := newPlane(c, h, w, 1, 0)
					quantizeCells(img, fp, a)
					return a.cells
				})
			}
		}
	}
}

// FuzzCellPassesVsPortable drives one element-wise pass — pass mod 3:
// argmax, max-pool, input quantisation — under every body this host can run
// against the portable one, on a plane of 1 to 9 channels and 1 to 4 rows of
// 1 to 48 pixels (the pool's output; its input has 2 to 9 rows of up to 97),
// filled from data repeated: int8 values, or for the quantisation float32
// bit patterns four bytes each. param sets the pool's shift, −2 to 3, or the
// quantisation's fix position, −3 to 12.
func FuzzCellPassesVsPortable(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(1), uint8(18), uint8(0), []byte{0x80, 0x7f, 0x7f, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, pass, c, h, w, param uint8, data []byte) {
		cc, hh, ww := 1+int(c)%9, 1+int(h)%4, 1+int(w)%48
		at := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		int8s := func(n int) []int8 {
			s := make([]int8, n)
			for i := range s {
				s[i] = int8(at(i))
			}
			return s
		}
		switch pass % 3 {
		case 0:
			a := planeOf(int8s(cc*hh*ww), cc, hh, ww)
			sameAsPortable(t, "argmax", func() []uint8 { return argmaxChannelsInt8(a) })
		case 1:
			ih, iw := 2*hh+int(h)/4%2, 2*ww+int(w)/48%2
			in, shift := planeOf(int8s(cc*ih*iw), cc, ih, iw), int(param%6)-2
			sameAsPortable(t, "max-pool", func() []int32 {
				out := newPlane(cc, hh, ww, 1, 0)
				maxPoolInt8(in, shift, out)
				return out.cells
			})
		default:
			img := make([]float32, cc*hh*ww)
			for i := range img {
				img[i] = math.Float32frombits(uint32(at(4*i)) | uint32(at(4*i+1))<<8 | uint32(at(4*i+2))<<16 | uint32(at(4*i+3))<<24)
			}
			fp := FixPos(param%16) - 3
			sameAsPortable(t, "quantize", func() []int32 {
				a := newPlane(cc, hh, ww, 1, 0)
				quantizeCells(img, fp, a)
				return a.cells
			})
		}
	})
}

// BenchmarkMacTile times one macTile call, per host body and U-Net step
// shape, in GMAC/s over the pixels the tile keeps (cpairs·2·kh·kw·8 MACs
// each, a cell holding two channels), not the pixels it computes: 3×3
// convolutions over 1 to 64 channel pairs and the 1×1, 1×2 and 2×2 tap
// sets of the transpose convolutions' phases, each over one tile of the
// body's width, and 3×3 convolutions over rows 8 and 4 pixels wide, which
// the innermost planes of a 64×64 frame have, in the tile tileShape packs
// them into (2×8 and 4×4 on the VNNI body; one row and 2×4 on the others).
// Operands sit in L1, so this is the body's own ceiling, not a frame's.
// DESIGN §4.2 quotes it:
//
//	go test ./internal/quant/ -run '^$' -bench 'MacTile/(avx2|avx512vnni)/'
func BenchmarkMacTile(b *testing.B) {
	type shape struct{ cpairs, kh, kw, row int } // row 0: one tile of the body's width
	shapes := []shape{{1, 3, 3, 0}, {4, 3, 3, 0}, {16, 3, 3, 0}, {32, 3, 3, 0}, {64, 3, 3, 0}, {32, 1, 1, 0}, {32, 1, 2, 0}, {32, 2, 2, 0},
		{32, 3, 3, 8}, {32, 3, 3, 4}, {64, 3, 3, 8}, {64, 3, 3, 4}}
	rng := rand.New(rand.NewSource(1))
	cells := func(n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = pairCell(int8(rng.Intn(256)-128), int8(rng.Intn(256)-128))
		}
		return s
	}
	for _, bd := range hostBodies() {
		for _, sh := range shapes {
			name, row := fmt.Sprintf("cp%d-%dx%d", sh.cpairs, sh.kh, sh.kw), sh.row
			if row == 0 {
				row = tileWidths[bd]
			} else {
				name += fmt.Sprintf("-row%d", row)
			}
			width, rows := tileShape(bd, row)
			rowStride := width + sh.kw - 1
			planeStride := rowStride * (sh.kh + rows - 1)
			x, w := cells(sh.cpairs*planeStride), cells(sh.cpairs*sh.kh*sh.kw*tileLanes)
			var acc [tileSize]int32
			withBody(bd, func() {
				b.Run(KernelISA()+"/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						macTile(&acc, x, w, sh.cpairs, sh.kh, sh.kw, rowStride, planeStride, width, rows)
					}
					macs := float64(sh.cpairs*2*sh.kh*sh.kw*tileLanes*min(row, width)*rows) * float64(b.N)
					b.ReportMetric(macs/b.Elapsed().Seconds()/1e9, "GMAC/s")
				})
			})
		}
	}
}

// BenchmarkCellPasses times the element-wise passes per host body on one
// core at the geometry a 1M U-Net frame gives them: argmax over 6 classes at
// 64² and 256², the 8-channel max-pool from 256² to 128², and the input
// quantisation of a 256² slice at fix position 6 — a preprocessed phantom CT
// slice as volume_study feeds it, most of it one background value, and the
// slice workloads' N(0, 0.3²) noise, whose signs are a coin flip. DESIGN
// §4.2 quotes it:
//
//	go test ./internal/quant/ -run '^$' -bench CellPasses
func BenchmarkCellPasses(b *testing.B) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(1))
	logits64, logits256 := planeOf(randInt8s(rng, 6*64*64), 6, 64, 64), planeOf(randInt8s(rng, 6*256*256), 6, 256, 256)
	pool, pooled := planeOf(randInt8s(rng, 8*256*256), 8, 256, 256), newPlane(8, 128, 128, 1, 0)
	ct := phantom.Generate(1, phantom.Options{Size: 256, Slices: 16, Seed: 1, NoiseSigma: 12}).CT
	slice := imaging.Preprocess(ct.Data[ct.Nz/2*256*256:][:256*256], 256, 256, 256)
	noise := make([]float32, 256*256)
	for i := range noise {
		noise[i] = float32(rng.NormFloat64() * 0.3)
	}
	input := newPlane(1, 256, 256, 1, 0)
	for _, bd := range hostBodies() {
		withBody(bd, func() {
			isa := KernelISA()
			b.Run(isa+"/argmax-c6-64", func(b *testing.B) {
				for range b.N {
					argmaxChannelsInt8(logits64)
				}
			})
			b.Run(isa+"/argmax-c6-256", func(b *testing.B) {
				for range b.N {
					argmaxChannelsInt8(logits256)
				}
			})
			b.Run(isa+"/pool-c8-256", func(b *testing.B) {
				for range b.N {
					maxPoolInt8(pool, 0, pooled)
				}
			})
			b.Run(isa+"/quantize-phantom-256", func(b *testing.B) {
				for range b.N {
					quantizeCells(slice, 6, input)
				}
			})
			b.Run(isa+"/quantize-noise-256", func(b *testing.B) {
				for range b.N {
					quantizeCells(noise, 6, input)
				}
			})
		})
	}
}

// TestPhaseTapsPartitionKernel pins the rule that lets stride² small
// convolutions stand in for a transpose convolution: over every kernel size,
// stride and padding, each kernel tap is in exactly one phase — no
// multiply-add added or lost — and the tap a phase lists m-th reads the input
// base+m places from the phase's own index, which is where the transpose
// convolution's definition o = i·stride − pad + t puts it.
func TestPhaseTapsPartitionKernel(t *testing.T) {
	for k := 1; k <= 7; k++ {
		for stride := 1; stride <= 4; stride++ {
			for pad := 0; pad <= 4; pad++ {
				seen := make([]int, k)
				for a := 0; a < stride; a++ {
					taps, base := phaseTaps(k, stride, pad, a)
					for m, tap := range taps {
						if tap < 0 || tap >= k {
							t.Fatalf("k%d s%d p%d phase %d: tap %d outside the kernel", k, stride, pad, a, tap)
						}
						seen[tap]++
						// Output o = a + stride·j reads input i = j + base + m.
						for j := 0; j < 3; j++ {
							if o, i := a+stride*j, j+base+m; o != i*stride-pad+tap {
								t.Fatalf("k%d s%d p%d phase %d: tap %d at offset %d does not land on output %d", k, stride, pad, a, tap, base+m, o)
							}
						}
					}
				}
				for tap, n := range seen {
					if n != 1 {
						t.Fatalf("k%d s%d p%d: tap %d is in %d phases, want exactly 1", k, stride, pad, tap, n)
					}
				}
			}
		}
	}
}

// TestAccumulatorsWrapLikeInt32 reduces deep enough over all-(−128)
// operands that the true sum leaves int32: every body must wrap exactly as
// the reference's int32 does, within one phase's tile and across the taps of
// a many-tap phase, over an even and an odd number of channel pairs (the
// VNNI body's lone last plane and its sum of two accumulator sets).
func TestAccumulatorsWrapLikeInt32(t *testing.T) {
	fill := func(n int) []int8 {
		s := make([]int8, n)
		for i := range s {
			s[i] = -128
		}
		return s
	}
	bias := []int32{math.MaxInt32, math.MinInt32}
	check := func(name string, c, taps int, got, want []int8) {
		t.Helper()
		if int64(c)*int64(taps)*128*128 <= math.MaxInt32 {
			t.Fatalf("%s: reduction too shallow to wrap", name)
		}
		sameInt8s(t, name, got, want)
	}
	for _, b := range hostBodies() {
		withBody(b, func() {
			// 5×5 over 5300 channels (2650 pairs) and 5301 (an odd 2651):
			// 132 500 taps at the centre pixel.
			for _, c := range []int{5300, 5301} {
				h, w, outC, k, pad, shift := 3, 3, 2, 5, 2, 24
				src, weight := fill(c*h*w), fill(outC*c*k*k)
				check(fmt.Sprintf("%s conv c%d", KernelISA(), c), c, k*k,
					runConvInt8(t, src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, false, h, w),
					refConvInt8(src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, false, h, w, Bits8))
			}
			// 1×1 transpose convolution over 131 100 channels wraps on a
			// single tap; 5×5 at stride 1 over 5300 wraps across the taps.
			c, h, w, outC, k, pad, shift := 131100, 1, 1, 2, 1, 0, 24
			src, weight := fill(c), fill(c*outC)
			check(KernelISA()+" dconv tile", c, 1,
				runConvTransposeInt8(t, src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, true, 1, 1),
				refConvTransposeInt8(src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, true, 1, 1, Bits8))
			c, h, w, k, pad = 5300, 5, 5, 5, 2
			src, weight = fill(c*h*w), fill(c*outC*k*k)
			check(KernelISA()+" dconv taps", c, k*k,
				runConvTransposeInt8(t, src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, false, h, w),
				refConvTransposeInt8(src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, false, h, w, Bits8))
		})
	}
}

// fuzzCase is one decoded fuzz input: a geometry no U-Net produces, the
// operands and the write-back parameters.
type fuzzCase struct {
	c, h, w, outC, k, stride, pad int
	outPad                        int // transpose convolution only, < stride
	shift, shift2                 int
	relu                          bool
	geom                          testGeom
	src                           []int8
	bias                          []int32
	rng                           *rand.Rand
}

// decodeFuzz maps raw fuzz arguments onto a case: odd sizes, rows narrower
// than a tile, channel and lane counts off the multiples of 2 and 8, k in
// [1,5], stride in [1,3] (a convolution's fuzzer then runs at 1), any pad
// in [0,3] and output padding below the stride, shifts of every sign, both operand extremes and biases at the
// edges of int32. geom widens the planes (bits 0-1: input border beyond the
// reach; 2-3: output border; 4-5: planes ahead of the output in its buffer,
// as a store target has). fill selects the input's values (bits 0-1; the
// weights take bits 3-4), edge biases (bit 2) and, with bit 7, a reduction
// long enough to wrap int32 at a small spatial size.
func decodeFuzz(seed int64, c, h, w, outC uint16, k, pad, stride, outPad, shift, shift2, fill, geom uint8, relu bool) fuzzCase {
	fc := fuzzCase{
		c: 1 + int(c)%13, h: 1 + int(h)%11, w: 1 + int(w)%21, outC: 1 + int(outC)%19,
		k: 1 + int(k)%5, stride: 1 + int(stride)%3, pad: int(pad) % 4,
		shift: int(shift)%45 - 4, shift2: int(shift2)%7 - 2,
		relu: relu, rng: rand.New(rand.NewSource(seed)),
		geom: testGeom{extraBorder: int(geom & 3), outBorder: int(geom >> 2 & 3), planeOff: int(geom >> 4 & 3)},
	}
	fc.outPad = int(outPad) % fc.stride
	if fill&0x80 != 0 {
		fc.c, fc.h, fc.w, fc.outC = 5200+int(c)%1200, 1+int(h)%3, 1+int(w)%3, 1+int(outC)%3
	}
	fc.src = fc.operand(fc.c*fc.h*fc.w, fill&3)
	fc.bias = make([]int32, fc.outC)
	edges := []int32{math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1, 0}
	for i := range fc.bias {
		if fill&4 != 0 {
			fc.bias[i] = edges[fc.rng.Intn(len(edges))]
		} else {
			fc.bias[i] = int32(fc.rng.Intn(1<<16) - 1<<15)
		}
	}
	return fc
}

// operand draws n int8 values: random, all −128, or all 127.
func (fc *fuzzCase) operand(n int, mode uint8) []int8 {
	s := randInt8s(fc.rng, n)
	for i := range s {
		switch mode {
		case 1, 3:
			s[i] = -128
		case 2:
			s[i] = 127
		}
	}
	return s
}

// threeWay holds the production kernel to the reference under every body
// this host can run.
func threeWay(t *testing.T, want []int8, run func() []int8) {
	t.Helper()
	for _, b := range hostBodies() {
		withBody(b, func() { sameInt8s(t, KernelISA()+" body", run(), want) })
	}
}

func FuzzConvVsReference(f *testing.F) {
	f.Add(int64(1), uint16(2), uint16(6), uint16(8), uint16(3), uint8(2), uint8(1), uint8(0), uint8(0), uint8(11), uint8(2), uint8(0), uint8(0x14), true)
	f.Fuzz(func(t *testing.T, seed int64, c, h, w, outC uint16, k, pad, stride, outPad, shift, shift2, fill, geom uint8, relu bool) {
		fc := decodeFuzz(seed, c, h, w, outC, k, pad, stride, outPad, shift, shift2, fill, geom, relu)
		fc.stride = 1 // a convolution runs at stride 1 only (ValidStride)
		if fc.h+2*fc.pad < fc.k || fc.w+2*fc.pad < fc.k {
			t.Skip("kernel larger than the padded input")
		}
		oh, ow := (fc.h+2*fc.pad-fc.k)/fc.stride+1, (fc.w+2*fc.pad-fc.k)/fc.stride+1
		weight := fc.operand(fc.outC*fc.c*fc.k*fc.k, fill>>3&3)
		want := refConvInt8(fc.src, fc.c, fc.h, fc.w, weight, fc.bias, fc.outC, fc.k, fc.stride, fc.pad, fc.shift, fc.shift2, fc.relu, oh, ow, Bits8)
		threeWay(t, want, func() []int8 {
			return runInt8(t, graph.KindConv, fc.src, fc.c, fc.h, fc.w, weight, fc.bias, fc.outC, fc.k, fc.stride, fc.pad, fc.shift, fc.shift2, fc.relu, oh, ow, fc.geom)
		})
	})
}

func FuzzDconvVsReference(f *testing.F) {
	f.Add(int64(2), uint16(3), uint16(4), uint16(4), uint16(2), uint8(2), uint8(1), uint8(1), uint8(1), uint8(9), uint8(2), uint8(0), uint8(0x14), false)
	f.Fuzz(func(t *testing.T, seed int64, c, h, w, outC uint16, k, pad, stride, outPad, shift, shift2, fill, geom uint8, relu bool) {
		fc := decodeFuzz(seed, c, h, w, outC, k, pad, stride, outPad, shift, shift2, fill, geom, relu)
		oh, ow := (fc.h-1)*fc.stride-2*fc.pad+fc.k+fc.outPad, (fc.w-1)*fc.stride-2*fc.pad+fc.k+fc.outPad
		if oh < 1 || ow < 1 {
			t.Skip("padding swallows the output")
		}
		weight := fc.operand(fc.c*fc.outC*fc.k*fc.k, fill>>3&3)
		want := refConvTransposeInt8(fc.src, fc.c, fc.h, fc.w, weight, fc.bias, fc.outC, fc.k, fc.stride, fc.pad, fc.shift, fc.shift2, fc.relu, oh, ow, Bits8)
		threeWay(t, want, func() []int8 {
			return runInt8(t, graph.KindConvTranspose, fc.src, fc.c, fc.h, fc.w, weight, fc.bias, fc.outC, fc.k, fc.stride, fc.pad, fc.shift, fc.shift2, fc.relu, oh, ow, fc.geom)
		})
	})
}
