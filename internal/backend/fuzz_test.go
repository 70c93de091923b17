package backend

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseSpec drives the pool-spec grammar with arbitrary strings. Whatever
// the input, nothing panics, an error comes with no slots, and a success is
// between 1 and MaxPoolSlots registered kinds that parse back to the same
// pool when spelled out one slot per entry. The committed corpus under
// testdata/fuzz holds a count of two billion, counts that pass the bound only
// together, a pool of exactly the bound, zero, negative, non-numeric and
// overflowing counts and an unknown kind.
func FuzzParseSpec(f *testing.F) {
	f.Add("dpu-sim:2,cpu-int8,gpu-sim")
	known := Kinds()
	f.Fuzz(func(t *testing.T, spec string) {
		kinds, err := ParseSpec(spec)
		if err != nil {
			if kinds != nil {
				t.Fatalf("ParseSpec(%q) failed (%v) but returned %d slots", spec, err, len(kinds))
			}
			return
		}
		if len(kinds) < 1 || len(kinds) > MaxPoolSlots {
			t.Fatalf("ParseSpec(%q) = %d slots, want 1..%d", spec, len(kinds), MaxPoolSlots)
		}
		for _, k := range kinds {
			if !slices.Contains(known, k) {
				t.Fatalf("ParseSpec(%q) returned unregistered kind %q", spec, k)
			}
		}
		again, err := ParseSpec(strings.Join(kinds, ","))
		if err != nil || !slices.Equal(again, kinds) {
			t.Fatalf("ParseSpec(%q) = %v, but its slots spelled out parse to %v (err %v)", spec, kinds, again, err)
		}
	})
}
