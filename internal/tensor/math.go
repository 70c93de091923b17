package tensor

import "math"

// expf is float32 exp; a thin wrapper so hot loops avoid repeating the
// float64 conversions inline.
func expf(x float32) float32 { return float32(math.Exp(float64(x))) }

// Sqrtf is float32 sqrt.
func Sqrtf(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// Powf is float32 pow.
func Powf(x, y float32) float32 { return float32(math.Pow(float64(x), float64(y))) }
