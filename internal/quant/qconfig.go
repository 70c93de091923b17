package quant

import (
	"fmt"
	"sort"
)

// Supported per-layer bitwidths. INT4 and INT8 share the symmetric
// power-of-two-scale scheme (requantization stays a shift); BitsFP32 marks
// a layer kept in float as an accuracy fallback — its inputs and outputs
// still live on the int8 activation grid, so the surrounding integer
// pipeline is unchanged.
const (
	Bits4    = 4
	Bits8    = 8
	BitsFP32 = 32
)

// ValidBits reports whether b is a supported per-layer bitwidth. 0 is
// accepted as "unset" and means INT8.
func ValidBits(b int) bool {
	return b == 0 || b == Bits4 || b == Bits8 || b == BitsFP32
}

// QConfig assigns a bitwidth to each convolution layer of a graph (by
// folded-graph node name, which internal/quant.Fold and internal/prune both
// preserve). Layers absent from Layers use DefaultBits. Non-convolution
// nodes inherit precision from their producer (ReLU, max-pool) or stay
// INT8 (concat, softmax, input).
type QConfig struct {
	// DefaultBits applies to convolution layers not listed in Layers.
	// 0 means 8.
	DefaultBits int
	// Layers maps a convolution node name to its bitwidth (4, 8 or 32).
	Layers map[string]int
}

// BitsFor returns the configured bitwidth for the named layer, normalized
// so the zero QConfig (or a nil pointer) yields 8 everywhere.
func (c *QConfig) BitsFor(name string) int {
	if c == nil {
		return Bits8
	}
	if b, ok := c.Layers[name]; ok && b != 0 {
		return b
	}
	if c.DefaultBits != 0 {
		return c.DefaultBits
	}
	return Bits8
}

// Validate rejects configs carrying unsupported bitwidths before they can
// produce a half-quantized graph.
func (c *QConfig) Validate() error {
	if c == nil {
		return nil
	}
	if !ValidBits(c.DefaultBits) {
		return fmt.Errorf("quant: unsupported default bitwidth %d", c.DefaultBits)
	}
	names := make([]string, 0, len(c.Layers))
	for name := range c.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !ValidBits(c.Layers[name]) {
			return fmt.Errorf("quant: layer %q: unsupported bitwidth %d", name, c.Layers[name])
		}
	}
	return nil
}

// Clone returns a deep copy, so searches can branch configs freely.
func (c *QConfig) Clone() *QConfig {
	if c == nil {
		return nil
	}
	out := &QConfig{DefaultBits: c.DefaultBits}
	if c.Layers != nil {
		out.Layers = make(map[string]int, len(c.Layers))
		for k, v := range c.Layers {
			out.Layers[k] = v
		}
	}
	return out
}
