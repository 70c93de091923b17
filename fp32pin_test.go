// FP32 bit pins: the SHA-256 of the float32 bits every FP32 convolution,
// transpose convolution and max-pool produces, forward and backward, from
// the single layers up to the 2D U-Net, its exported graph and the 3D
// baseline. A change to how these are lowered (im2col, the GEMM, the bias
// and pooling loops) must keep every element's accumulation order, so every
// digest here must stay as it is.
package seneca_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"seneca/internal/nn"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/unet3d"
)

// fp32Pins maps each case to the digest of its FP32 results.
var fp32Pins = map[string]string{
	"conv2d/k1-s1-p0":      "1c9cca0f51b6faedae5d4ff767fc2eeaea2cca4d8e5a83f6ba261957e1da52df",
	"conv2d/k1-s1-p1":      "956a617054be17dd260f8c5da7f72a97df7e945920e1f5f41b6346e23848f23d",
	"conv2d/k1-s2-p0":      "91bfa2a4ce33c41801ae8c87507d34e0169b2afd1f700b917dfe04184549c35b",
	"conv2d/k1-s2-p1":      "f1c6403e9f1c7ab6ca3ea5f23ddbd3c7b3af3c1a6d14a78d6de6dce8f21bc728",
	"conv2d/k2-s1-p0":      "e768847e8868a09d7c3547997cb5ddc02a6345ccd905b8ed0e6f67f3b24bdede",
	"conv2d/k2-s1-p1":      "029e0f67dbb7ffff8329ef0310f002b863b258406ef357a0663af882a2806389",
	"conv2d/k2-s2-p0":      "884b6239ebffd2ade536f373a6d085011372521bef045aee2d0a063cdfe17877",
	"conv2d/k2-s2-p1":      "7dcf3025be1a6d85a7ec7ce803ad83b845faae56a6d7b667879d480f50277404",
	"conv2d/k3-s1-p0":      "9d72af90510e0f47ec187fa2460f98c87039599e8f220da478dd1d45d3cde979",
	"conv2d/k3-s1-p1":      "19a2f9bf3da1936e4b852f78a4228783b7a3ec78a026748196f1c502eedf6d46",
	"conv2d/k3-s2-p0":      "53e39b79678e8c2ded4d2a955a01fe7455e5dc2db5b11982409ff40cd5cd1029",
	"conv2d/k3-s2-p1":      "8269ce107039ffa855383128e84aa5c6e28e125d8b68b520acd1c99d3d7a43ea",
	"conv3d/k1-s1-p0":      "f8c6e1903383eea933afb6d8253241b3f27f7a9c8c690822a86022a81fa5151f",
	"conv3d/k3-s1-p1":      "cebec71f55f86c1a4a52e383fb1c7bef00811b1852da5b9a14f9413305cf07b0",
	"conv3d/k3-s2-p1":      "622b4a22b9dd2696712cf07ff6a772038c802f5099e99fb4b6472278d769ac1f",
	"convT2d/k1-s1-p0-op0": "d7c09cdf4f76c2f9f0e498f6cd7d3292319c8e7704987f009cbe8d75fde76e7e",
	"convT2d/k1-s1-p0-op1": "ef2a6b51ed3fca84cb09bc9fda96569d7d8e8cda4939b860980c26531f906bba",
	"convT2d/k1-s1-p1-op0": "3e8fc0d4611b1722b0cc38b10888d35cff854eead0e7dc0940dd6c9ddbd2076f",
	"convT2d/k1-s1-p1-op1": "46acf84a64de4d491da6aa95f4ef60a34e68cffb8953b7519075e7455bdc429c",
	"convT2d/k1-s2-p0-op0": "0c57b7beb1678466c0c9ae06b11b5d1fe0559014068f2a79cfdecb12866fe04a",
	"convT2d/k1-s2-p0-op1": "307c088f260e7e122d96025d747a75c5e1a0391ba23f74287dc6be9cece5a0a7",
	"convT2d/k1-s2-p1-op0": "5437932505a6a09ae2527cb0edd9484355eb838e5ce2359a4ede5980e0c49e8d",
	"convT2d/k1-s2-p1-op1": "415a671df081be11a8e02f67182087ada2f195a0179defc42d743fcd01962f36",
	"convT2d/k2-s1-p0-op0": "3eeaba379f3c64c3afbc2c80530e1c2a798c7643e196146a30e92ce910b0518b",
	"convT2d/k2-s1-p0-op1": "3008b65d0aeb8560f411d694ea103e9e6bc9f8ff4d0604d08712964275ad6471",
	"convT2d/k2-s1-p1-op0": "dfd7b43d15798973d852ccaf32d5f1c2e7bbe8af3451afe8f6da739af149670c",
	"convT2d/k2-s1-p1-op1": "dc40bef5ae1ffb5a91e65b64cedbb82c400b438adb4a66def8e48515950bbf87",
	"convT2d/k2-s2-p0-op0": "1ed347ed5e70ffcf341c0458d9b6f5d94aae381de220845bb316c0eff9251f11",
	"convT2d/k2-s2-p0-op1": "f8b16247190eec189f47f56d861d017d52dbd6099d53caab88a79ec729870bbf",
	"convT2d/k2-s2-p1-op0": "685a93a64bd0ce83ed442219b9d20d5983560689da53b6171910b161a2cd915f",
	"convT2d/k2-s2-p1-op1": "28f2bf77133e6f5845fefa06b615b38aa3fdd209817f5d5c1c7a8e385a55ccfe",
	"convT2d/k3-s1-p0-op0": "b8d5760fa6905a650da85d7f0b98b4e1f9c4de05c17bacc312b631938dfcb100",
	"convT2d/k3-s1-p0-op1": "d3d938503b98618729ffdc33874299eb116e8a7fe8919a78e7efd212af187f08",
	"convT2d/k3-s1-p1-op0": "64034e6b515ca0fc4483f8f2ee0137b88c448653422c7fcf8cdd2c72d5d47a7b",
	"convT2d/k3-s1-p1-op1": "34e4888c572332bcedc287129afafe09202a8550bf5828f14a4b29636b56a418",
	"convT2d/k3-s2-p0-op0": "f9d37d74d6df9de970f242f68c25e82d3da434d5483aa3f6afaa4bda2add1250",
	"convT2d/k3-s2-p0-op1": "7c856f0f2337527bd08041bb3762b4ea2fb642c75f4c2e385eae089e1e11942d",
	"convT2d/k3-s2-p1-op0": "e85e262bb5ab3f867db7efd981375afd38354c48b078e31fa8562ebba76869cf",
	"convT2d/k3-s2-p1-op1": "6db8b4b85584cdc68dbe90ee15bd0e92ee0041f18c02b89b16a16d37dc1ed639",
	"graph/forward":        "a056b0610d677e19e773a31fdcfdd5635640763dfd0107b8b6dadfda5a926b0e",
	"maxpool2d":            "ac4696cbf744dd3e9478ee21f6f089c855c75760fa0b089359127c3c7082634c",
	"maxpool3d":            "22c58fd0c5e09e825d303cfb05aba2cd50aa7aad1c4334ce79c2f7dd2f5dce63",
	"unet/forward":         "3cc38b32e987e4573001324e78ed5218c36bd8e206dab3f0e5e40f341a9583a6",
	"unet/train-step":      "9aa1edb7eeaa04fcf78faa79bc173b072f022ae6fa2346c0f9e8cca5778cf48c",
	"unet3d/forward":       "727d09e32db50e857c1a7bf18e8fe98d4734363e5981d920127e09a32f7d64a4",
	"unet3d/train-step":    "39c2daac9cc975b339c4a36c356a1a389d6b561ad32c3ecd8e64b7e4d167198b",
}

// fmaProbe is read through a variable so the compiler cannot fold it.
var fmaProbe = [3]float32{1 + 0x1p-13, 1 - 0x1p-13, -1}

// fmaContracted reports whether the compiler fused x*y+z into one rounding
// (arm64 does; amd64 does from GOAMD64=v3). The product here is 1-2⁻²⁶,
// which rounds to 1 in float32, so only a fused multiply-add sees the
// remainder. The pins hold for code that rounds every product.
func fmaContracted() bool {
	p := fmaProbe
	return p[0]*p[1]+p[2] != 0
}

func digest(parts ...[]float32) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range parts {
		for _, v := range p {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinFill fills data with seeded normal values, every fifth one zero so the
// GEMM's zero-skip and the bias loops' zero-skip both run.
func pinFill(rng *rand.Rand, data []float32) {
	for i := range data {
		if i%5 == 0 {
			data[i] = 0
		} else {
			data[i] = float32(rng.NormFloat64())
		}
	}
}

func pinTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	pinFill(rng, t.Data)
	return t
}

// layerDigest refills l's parameters, runs one training forward and one
// backward and digests the output, the input gradient and every parameter
// gradient.
func layerDigest(rng *rand.Rand, l nn.Layer, x *tensor.Tensor) string {
	for _, p := range l.Params() {
		pinFill(rng, p.Value.Data)
		p.ZeroGrad()
	}
	y := l.Forward(x, true)
	gx := l.Backward(pinTensor(rng, y.Shape...))
	parts := [][]float32{y.Data, gx.Data}
	for _, p := range l.Params() {
		parts = append(parts, p.Grad.Data)
	}
	return digest(parts...)
}

// pinBiases gives every bias of a model seeded values, with zeros among
// them, so the models' pins run the bias loops.
func pinBiases(rng *rand.Rand, params []*nn.Param) {
	for _, p := range params {
		if strings.HasSuffix(p.Name, ".bias") {
			pinFill(rng, p.Value.Data)
		}
	}
}

func paramGrads(params []*nn.Param) [][]float32 {
	out := make([][]float32, 0, len(params))
	for _, p := range params {
		out = append(out, p.Grad.Data)
	}
	return out
}

func TestFP32LoweringPins(t *testing.T) {
	if fmaContracted() {
		t.Skip("the compiler fuses multiply-adds on this target; the pins hold for separately rounded products")
	}
	got := map[string]string{}

	// Single layers at batch 2: a bias gradient summed over the batch at
	// once instead of image by image shows only at N ≥ 2.
	for _, k := range []int{1, 2, 3} {
		for _, s := range []int{1, 2} {
			for _, p := range []int{0, 1} {
				rng := rand.New(rand.NewSource(int64(100*k + 10*s + p)))
				x := pinTensor(rng, 2, 3, 7, 6)
				got[fmt.Sprintf("conv2d/k%d-s%d-p%d", k, s, p)] = layerDigest(rng, nn.NewConv("c", 2, 3, 4, k, s, p, rng, nil), x)
				for _, op := range []int{0, 1} {
					l := nn.NewConvTranspose2D("d", 3, 4, k, s, p, op, rng, nil)
					got[fmt.Sprintf("convT2d/k%d-s%d-p%d-op%d", k, s, p, op)] = layerDigest(rng, l, x)
				}
			}
		}
	}
	for _, g := range [][3]int{{3, 1, 1}, {3, 2, 1}, {1, 1, 0}} {
		rng := rand.New(rand.NewSource(int64(g[0]*100 + g[1]*10 + g[2])))
		x := pinTensor(rng, 2, 2, 4, 5, 6)
		got[fmt.Sprintf("conv3d/k%d-s%d-p%d", g[0], g[1], g[2])] = layerDigest(rng, nn.NewConv("c", 3, 2, 3, g[0], g[1], g[2], rng, nil), x)
	}

	// The 1M U-Net at depth 3 and 64², its exported graph, and one training
	// step at batch 2.
	rng := rand.New(rand.NewSource(41))
	cfg, err := unet.ConfigByName("1M")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Depth = 3
	m := unet.New(cfg)
	pinBiases(rng, m.Params())
	x := pinTensor(rng, 2, 1, 64, 64)
	got["unet/forward"] = digest(m.Forward(x, false).Data)
	gout, err := m.Export(64, 64).Forward(tensor.FromSlice(x.Data[:64*64], 1, 64, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	got["graph/forward"] = digest(gout.Data)
	y := m.Forward(x, true)
	gx := m.Backward(pinTensor(rng, y.Shape...))
	got["unet/train-step"] = digest(append([][]float32{y.Data, gx.Data}, paramGrads(m.Params())...)...)

	// The CT-ORG 3D baseline on a 1×1×8×16×16 volume.
	m3 := unet3d.New(unet3d.CTORGBaseline())
	pinBiases(rng, m3.Params())
	v := pinTensor(rng, 1, 1, 8, 16, 16)
	got["unet3d/forward"] = digest(m3.Forward(v, false).Data)
	y = m3.Forward(v, true)
	gx = m3.Backward(pinTensor(rng, y.Shape...))
	got["unet3d/train-step"] = digest(append([][]float32{y.Data, gx.Data}, paramGrads(m3.Params())...)...)

	got["maxpool2d"] = poolDigest(t, nn.NewMaxPool2D("p"), 2, 3, 4, 6)
	got["maxpool3d"] = poolDigest(t, nn.NewMaxPool2D("p"), 2, 2, 4, 4, 6)

	for name, d := range got {
		if want, ok := fp32Pins[name]; !ok {
			t.Errorf("%s: no pin (digest %s)", name, d)
		} else if d != want {
			t.Errorf("%s: digest %s, pinned %s", name, d, want)
		}
	}
	for name := range fp32Pins {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not computed", name)
		}
	}
}

// poolDigest pools a tensor of small integers (so most windows hold ties)
// with a NaN at the first position of one window and inside another, checks
// that a tie routes the gradient to the window's first pixel in raster order
// and that a leading NaN is kept, and digests the output and the gradient.
func poolDigest(t *testing.T, l nn.Layer, shape ...int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(shape))))
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.Intn(3))
	}
	w := shape[len(shape)-1]
	// The first window (offsets 0, 1, w, w+1 and, in 3D, one plane down)
	// is a tie; the second window opens with a NaN; a later one holds one.
	plane := w * shape[len(shape)-2]
	for _, off := range []int{0, 1, w, w + 1, plane, plane + 1, plane + w, plane + w + 1} {
		x.Data[off] = 5
	}
	x.Data[2] = float32(math.NaN())
	x.Data[len(x.Data)-1] = float32(math.NaN())
	y := l.Forward(x, true)
	g := tensor.New(y.Shape...)
	for i := range g.Data {
		g.Data[i] = float32(i + 1)
	}
	gx := l.Backward(g)
	if y.Data[0] != 5 || gx.Data[0] != 1 || gx.Data[1] != 0 || gx.Data[w] != 0 {
		t.Errorf("%s: a tie must route to the window's first pixel: out %v, grad %v", l.Name(), y.Data[0], gx.Data[:2])
	}
	if !math.IsNaN(float64(y.Data[1])) || gx.Data[2] != 2 {
		t.Errorf("%s: a NaN opening a window must stay: out %v, grad %v", l.Name(), y.Data[1], gx.Data[2])
	}
	return digest(y.Data, gx.Data)
}
