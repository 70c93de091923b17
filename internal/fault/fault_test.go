package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"seneca/internal/obs"
)

func TestUnprogrammedPointIsFree(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	if err := r.Check("backend.execute.dpu-sim"); err != nil {
		t.Fatalf("unprogrammed point injected: %v", err)
	}
	if got := r.Active(); len(got) != 0 {
		t.Fatalf("Active() = %v, want empty", got)
	}
}

func TestErrorFaultFiresAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(1, reg)
	boom := errors.New("boom")
	r.Enable("p", Error(1, boom))
	for i := 0; i < 3; i++ {
		if err := r.Check("p"); !errors.Is(err, boom) {
			t.Fatalf("hit %d: err = %v, want boom", i, err)
		}
	}
	if got := r.Injected("p"); got != 3 {
		t.Fatalf("Injected = %d, want 3", got)
	}
	if !strings.Contains(reg.Expose(), `seneca_fault_injected_total{point="p"} 3`) {
		t.Fatalf("metrics missing injection counter:\n%s", reg.Expose())
	}
}

func TestZeroValueFaultInjectsErrInjected(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	r.Enable("p", Fault{})
	if err := r.Check("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestCountAndAfterBudget(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	// Skip the first 2 hits, then fire exactly twice.
	r.Enable("p", Fault{After: 2, Count: 2, Err: ErrInjected})
	var fired int
	for i := 0; i < 10; i++ {
		if r.Check("p") != nil {
			fired++
			if i < 2 {
				t.Fatalf("fired during the After window at hit %d", i)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

func TestProbabilityIsSeededDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		r := NewRegistry(seed, obs.NewRegistry())
		r.Enable("p", Error(0.5, nil))
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Check("p") != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d of %d hits", fired, len(a))
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same injection pattern")
	}
}

func TestStallSleepsAndCtxCutsItShort(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	r.Enable("p", Stall(1, 50*time.Millisecond))
	start := time.Now()
	if err := r.Check("p"); err != nil {
		t.Fatalf("pure stall returned error %v", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("stall slept only %v", d)
	}

	r.Enable("p", Stall(1, 10*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	err := r.CheckCtx(ctx, "p")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled stall err = %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("ctx did not cut the stall short (%v)", d)
	}
}

func TestDisableAndReset(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	r.Enable("a", Fault{})
	r.Enable("b", Fault{})
	r.Disable("a")
	if err := r.Check("a"); err != nil {
		t.Fatalf("disabled point fired: %v", err)
	}
	if err := r.Check("b"); err == nil {
		t.Fatal("point b lost its program on Disable(a)")
	}
	r.Reset()
	if err := r.Check("b"); err != nil {
		t.Fatalf("point b survived Reset: %v", err)
	}
	if r.armed.Load() != 0 {
		t.Fatalf("armed = %d after Reset", r.armed.Load())
	}
}

func TestApplySpec(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	err := r.Apply("backend.execute.dpu-sim,p=0.5,count=3; backend.execute,delay=5ms ;nifti.read,err=disk glitch,after=1")
	if err != nil {
		t.Fatal(err)
	}
	got := r.Active()
	want := []string{"backend.execute", "backend.execute.dpu-sim", "nifti.read"}
	if len(got) != len(want) {
		t.Fatalf("Active() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Active() = %v, want %v", got, want)
		}
	}
	// The stall entry must be delay-only.
	if err := r.Check("backend.execute"); err != nil {
		t.Fatalf("stall entry injected an error: %v", err)
	}
	// The custom-message error fires from the second hit.
	if err := r.Check("nifti.read"); err != nil {
		t.Fatalf("after=1 ignored: %v", err)
	}
	if err := r.Check("nifti.read"); err == nil || !strings.Contains(err.Error(), "disk glitch") {
		t.Fatalf("custom error message lost: %v", err)
	}

	for _, bad := range []string{",p=1", "p,zoom=3", "p,p=abc", "p,delay=fast",
		"p,p=5", "p,p=-1", "p,p=NaN", "p,p=0", "p,count=-1", "p,after=-2", "p,delay=-5ms"} {
		if err := r.Apply(bad); err == nil {
			t.Fatalf("bad spec %q accepted", bad)
		}
	}
}

// TestApplyIsAllOrNothing checks a spec whose later entry is bad programs none
// of its earlier ones.
func TestApplyIsAllOrNothing(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	if err := r.Apply("a,p=0.5; b,count=2; c,p=NaN"); err == nil {
		t.Fatal("spec with p=NaN accepted")
	}
	if got := r.Active(); len(got) != 0 {
		t.Fatalf("a rejected spec armed %v", got)
	}
	if err := r.Check("a"); err != nil {
		t.Fatalf("point of a rejected spec fired: %v", err)
	}
}

func TestConcurrentCheckIsSafe(t *testing.T) {
	r := NewRegistry(7, obs.NewRegistry())
	r.Enable("p", Error(0.3, nil))
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				r.Check("p")
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if f := r.Injected("p"); f == 0 || f == 1600 {
		t.Fatalf("implausible fire count %d of 1600", f)
	}
}

func TestSlowTailCountsOnlyStalledHits(t *testing.T) {
	r := NewRegistry(11, obs.NewRegistry())
	r.Enable("p", SlowTail(0.8, 30*time.Millisecond))
	slow := 0
	for i := 0; i < 50; i++ {
		start := time.Now()
		if err := r.Check("p"); err != nil {
			t.Fatalf("slow program injected an error: %v", err)
		}
		if time.Since(start) >= 15*time.Millisecond {
			slow++
		}
	}
	if slow == 0 || slow == 50 {
		t.Fatalf("q=0.8 stalled %d of 50 hits", slow)
	}
	// The fire count must be an exact census of the stalled hits — that is
	// what lets chaos tests reconcile hedge counters against injections.
	if got := r.Injected("p"); got != slow {
		t.Fatalf("Injected = %d, stalled hits = %d", got, slow)
	}
}

func TestSlowStepsTakeHighestReached(t *testing.T) {
	r := NewRegistry(3, obs.NewRegistry())
	// A step at Q=0 catches every hit, so every hit fires; the second step
	// upgrades the slowest half to a much longer stall.
	r.Enable("p", Fault{Slow: []QuantileDelay{
		{Q: 0.5, Delay: 40 * time.Millisecond}, // deliberately listed first
		{Q: 0, Delay: 2 * time.Millisecond},
	}})
	const hits = 40
	long := 0
	for i := 0; i < hits; i++ {
		start := time.Now()
		if err := r.Check("p"); err != nil {
			t.Fatalf("slow program injected an error: %v", err)
		}
		if time.Since(start) >= 25*time.Millisecond {
			long++
		}
	}
	if got := r.Injected("p"); got != hits {
		t.Fatalf("Injected = %d, want every hit (%d) with a Q=0 step", got, hits)
	}
	if long == 0 || long == hits {
		t.Fatalf("two-step program produced %d of %d long stalls", long, hits)
	}
}

func TestSlowStallRespectsContext(t *testing.T) {
	r := NewRegistry(1, obs.NewRegistry())
	r.Enable("p", SlowTail(0, 10*time.Second)) // every hit stalls, hard
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := r.CheckCtx(ctx, "p"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled slow stall err = %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("ctx did not cut the slow stall short (%v)", d)
	}
}

func TestApplySlowSpec(t *testing.T) {
	r := NewRegistry(5, obs.NewRegistry())
	err := r.Apply("node.a,slow=p50:1ms,slow=p999:80ms; node.b,slow=0.9:5ms")
	if err != nil {
		t.Fatal(err)
	}
	// Slow entries are pure latency programs: no injected error.
	for i := 0; i < 20; i++ {
		if err := r.Check("node.a"); err != nil {
			t.Fatalf("slow spec injected an error: %v", err)
		}
	}
	for _, bad := range []string{
		"p,slow=42ms",      // missing quantile
		"p,slow=p99",       // missing duration
		"p,slow=1.5:10ms",  // quantile past 1
		"p,slow=1:10ms",    // quantile must stay below 1
		"p,slow=-0.1:10ms", // negative quantile
		"p,slow=pxx:10ms",  // unparseable percentile
		"p,slow=p99:fast",  // unparseable duration
		"p,slow=NaN:10ms",  // NaN quantile
		"p,slow=p99:-1ms",  // negative duration
	} {
		if err := r.Apply(bad); err == nil {
			t.Fatalf("bad spec %q accepted", bad)
		}
	}
}

func TestSlowDrawsAreSeededDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		r := NewRegistry(seed, obs.NewRegistry())
		r.Enable("p", SlowTail(0.5, time.Millisecond))
		out := make([]bool, 32)
		for i := range out {
			before := r.Injected("p")
			r.Check("p")
			out[i] = r.Injected("p") > before
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
}
