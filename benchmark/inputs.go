package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strconv"
)

// poolSize is how many distinct seeded inputs a slice workload cycles, so a
// response swapped between requests is caught by the byte comparison.
const poolSize = 16

// The three request encodings /v1/segment accepts.
const (
	encOctet = iota
	encJSON
	encNIfTI
	numEncodings
)

var contentTypes = [numEncodings]string{"application/octet-stream", "application/json", "application/x-nifti"}

// slicePool is a slice workload's inputs: the raw values, the request body
// of each in every encoding, and the mask the oracle gives for each.
type slicePool struct {
	inputs [][]float32
	bodies [][numEncodings][]byte
	masks  [][]uint8
}

// newSlicePool draws n inputs from rng with the distribution of the root
// package's kernel benchmarks (N(0, 0.3²)) and runs the oracle on each.
func newSlicePool(m *model, rng *rand.Rand, n int) (*slicePool, error) {
	p := &slicePool{}
	for range n {
		in := make([]float32, m.pixels())
		for i := range in {
			in[i] = float32(rng.NormFloat64() * 0.3)
		}
		mask, err := m.run(in)
		if err != nil {
			return nil, err
		}
		nii, err := encodeNIfTISlice(in, m.size)
		if err != nil {
			return nil, err
		}
		p.inputs = append(p.inputs, in)
		p.masks = append(p.masks, mask)
		p.bodies = append(p.bodies, [numEncodings][]byte{encodeOctet(in), encodeJSON(in), nii})
	}
	return p, nil
}

// encodeOctet is the raw little-endian float32 body.
func encodeOctet(in []float32) []byte {
	b := make([]byte, 4*len(in))
	for i, v := range in {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// encodeJSON is the {"data":[...]} body; each value is printed with the
// fewest digits that read back as the same float32, so all three encodings
// carry bit-identical inputs.
func encodeJSON(in []float32) []byte {
	b := []byte(`{"data":[`)
	for i, v := range in {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// hashMasks is the SHA-256 over a workload's reference masks in order, the
// value pinned under golden/ for seed 1.
func hashMasks(masks [][]uint8) string {
	h := sha256.New()
	for _, m := range masks {
		h.Write(m)
	}
	return hex.EncodeToString(h.Sum(nil))
}
