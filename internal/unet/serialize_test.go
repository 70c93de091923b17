package unet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"seneca/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg)
	// Touch BN running stats so the round trip carries non-default values.
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	m.Forward(x, true)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != m.Cfg {
		t.Fatalf("config %+v vs %+v", loaded.Cfg, m.Cfg)
	}
	// Bit-exact inference agreement.
	probe := tensor.New(1, 1, 16, 16)
	for i := range probe.Data {
		probe.Data[i] = float32(rng.NormFloat64())
	}
	want := m.Forward(probe, false)
	got := loaded.Forward(probe, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output %d differs: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	m := New(tinyConfig())
	path := t.TempDir() + "/m.model"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ParamCount() != m.ParamCount() {
		t.Fatal("parameter count differs")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("zero bytes accepted")
	}
}

// TestSaveBytesGolden pins the bytes Save produces for the tiny network after
// one training-mode forward pass (so the batch-norm running statistics are
// not their defaults).
func TestSaveBytesGolden(t *testing.T) {
	m := New(tinyConfig())
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	m.Forward(x, true)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "5269fb087d7f882f7f833a4766ba1f6e7aa91fa95e733f3f555b93554893da94"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("Save bytes sha256 %s, want %s", got, want)
	}
}

// checkpointHeader hand-builds the bytes of a checkpoint up to and including
// its parameter count, independently of Save.
func checkpointHeader(cfg Config, nParams uint32) []byte {
	var b bytes.Buffer
	w32 := func(v uint32) { b.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}) }
	b.WriteString("SENM")
	w32(1) // version
	w32(uint32(len(cfg.Name)))
	b.WriteString(cfg.Name)
	for _, v := range []int{cfg.Depth, cfg.BaseFilters, cfg.InChannels, cfg.NumClasses} {
		w32(uint32(v))
	}
	w32(math.Float32bits(cfg.DropoutRate))
	w32(uint32(cfg.Seed))
	w32(uint32(cfg.Seed >> 32))
	w32(nParams)
	return b.Bytes()
}

// fuzzConfig is the smallest network a checkpoint can hold.
var fuzzConfig = Config{Name: "f", Depth: 1, BaseFilters: 2, InChannels: 1, NumClasses: 2, Seed: 7}

func TestParamCountClosedForm(t *testing.T) {
	for _, cfg := range append(TableII(), tinyConfig(), fuzzConfig) {
		if got, want := paramCount(cfg), New(cfg).ParamCount(); got != want {
			t.Errorf("%s: paramCount %d, New(cfg).ParamCount() %d", cfg.Name, got, want)
		}
	}
}

// TestLoadRefusesBadHeaders feeds Load complete files whose headers New
// cannot build from, or whose configuration needs more parameter values than
// the file holds: each must be an error naming the field, not a panic or an
// allocation the file never backs.
func TestLoadRefusesBadHeaders(t *testing.T) {
	with := func(edit func(*Config)) Config {
		c := fuzzConfig
		edit(&c)
		return c
	}
	for _, c := range []struct {
		cfg     Config
		nParams uint32
		want    string
	}{
		{with(func(c *Config) { c.Depth = 0 }), 0, "depth"},
		{with(func(c *Config) { c.NumClasses = 1 }), 0, "class count"},
		{with(func(c *Config) { c.NumClasses = 257 }), 0, "class count"},
		{with(func(c *Config) { c.BaseFilters = 0 }), 0, "base filters"},
		{with(func(c *Config) { c.BaseFilters = 1 << 16 }), 0, "base filters"},
		{with(func(c *Config) { c.InChannels = 0 }), 0, "input channels"},
		{with(func(c *Config) { c.Depth, c.BaseFilters = 4, 1<<12 }), 0, "parameter values"},
		{fuzzConfig, 1 << 20, "parameter count"},
	} {
		data := append(checkpointHeader(c.cfg, c.nParams), 0, 0, 0, 0) // no batch-norms
		_, err := Load(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v with %d parameters: error %v, want one naming %q", c.cfg, c.nParams, err, c.want)
		}
	}
}

// TestLoadDeclaredSizeHoldsNoMemory: a tensor declaring 2^24 values over a
// short body costs what the body holds, not the 64 MiB it declares.
func TestLoadDeclaredSizeHoldsNoMemory(t *testing.T) {
	params := New(fuzzConfig).Params()
	var b bytes.Buffer
	b.Write(checkpointHeader(fuzzConfig, uint32(len(params))))
	name := params[0].Name
	b.Write([]byte{byte(len(name)), 0, 0, 0})
	b.WriteString(name)
	b.Write([]byte{0, 0, 0, 1}) // 1<<24 values
	b.Write(make([]byte, 64))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(b.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated tensor accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Load allocated %d bytes for a %d-byte file", got, b.Len())
	}
}

// FuzzLoad feeds arbitrary bytes to the checkpoint decoder: Load returns a
// model or an error, never panics, and builds no network its bytes do not
// back. A model it accepts must survive its own Save and Load.
func FuzzLoad(f *testing.F) {
	var valid bytes.Buffer
	if err := New(fuzzConfig).Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatal("Load returned both a model and an error")
			}
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("re-encoding accepted model: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
	})
}
