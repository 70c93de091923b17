// The benchmark is a module of its own, so the repository's build file can
// change without touching it. Its import path sits under the repository's
// module path, which lets the layer walk import seneca/internal/...; the
// replace points at the checkout it is run from.
module seneca/benchmark

go 1.23

require seneca v0.0.0

replace seneca => ../
