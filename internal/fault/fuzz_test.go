package fault

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"seneca/internal/obs"
)

// FuzzApplySpec drives the fault-spec grammar with arbitrary strings on a
// fresh registry. Whatever the input, nothing panics; a spec that returns an
// error arms no point; a spec with a p outside (0, 1] or a negative count,
// after or delay is an error; and every point an accepted spec arms holds a
// program Enable kept as written: p in (0, 1], slow steps at quantiles in
// [0, 1) with no negative stall. The committed corpus under testdata/fuzz
// holds p=5, p=-1, p=NaN, p=0, negative count, after and delay, a NaN slow
// quantile, and a spec whose last entry is the bad one.
func FuzzApplySpec(f *testing.F) {
	f.Add("backend.execute.dpu-sim,p=0.1,count=20;backend.execute,p=0.05,delay=250ms")
	f.Fuzz(func(t *testing.T, spec string) {
		r := NewRegistry(1, obs.NewRegistry())
		if err := r.Apply(spec); err != nil {
			if armed := r.Active(); len(armed) != 0 {
				t.Fatalf("Apply(%q) failed (%v) but armed %v", spec, err, armed)
			}
			return
		}
		if refusable(spec) {
			t.Fatalf("Apply(%q) accepted an out-of-range value", spec)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if int(r.armed.Load()) != len(r.points) {
			t.Fatalf("Apply(%q): armed count %d, %d points", spec, r.armed.Load(), len(r.points))
		}
		for name, p := range r.points {
			f := p.f
			if !(f.Prob > 0 && f.Prob <= 1) || f.Count < 0 || f.After < 0 || f.Delay < 0 {
				t.Fatalf("Apply(%q) armed %s with %+v", spec, name, f)
			}
			for _, s := range f.Slow {
				if !(s.Q >= 0 && s.Q < 1) || s.Delay < 0 {
					t.Fatalf("Apply(%q) armed %s with slow step %+v", spec, name, s)
				}
			}
		}
	})
}

// refusable reports whether any p, count, after or delay option of spec
// parses to a value Apply must refuse.
func refusable(spec string) bool {
	for _, entry := range strings.Split(spec, ";") {
		for _, opt := range strings.Split(entry, ",")[1:] {
			key, val, _ := strings.Cut(strings.TrimSpace(opt), "=")
			switch key {
			case "p":
				if p, err := strconv.ParseFloat(val, 64); err == nil && !(p > 0 && p <= 1) {
					return true
				}
			case "count", "after":
				if n, err := strconv.Atoi(val); err == nil && n < 0 {
					return true
				}
			case "delay":
				if d, err := time.ParseDuration(val); err == nil && d < 0 {
					return true
				}
			}
		}
	}
	return false
}
