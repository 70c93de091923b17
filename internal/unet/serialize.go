package unet

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"seneca/internal/binio"
)

// Binary model checkpoint layout (little-endian):
//
//	magic "SENM" | version u32 | name | depth, baseFilters, inChannels,
//	numClasses u32 | dropout f32 | seed i64 | paramCount u32 |
//	per parameter: name | values |
//	bnCount u32 | per batch-norm: name | runningMean | runningVar
//
// Strings and tensors are a u32 count, then the elements (internal/binio).
const (
	modelMagic   = "SENM"
	modelVersion = 1
)

// Save serializes the model (weights and batch-norm running statistics) so
// training and deployment can run as separate steps (cmd/seneca-train →
// cmd/seneca-compile).
func (m *Model) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(modelMagic)
	bw.U32(modelVersion)
	bw.String(m.Cfg.Name)
	for _, v := range []int{m.Cfg.Depth, m.Cfg.BaseFilters, m.Cfg.InChannels, m.Cfg.NumClasses} {
		bw.U32(uint32(v))
	}
	bw.F32(m.Cfg.DropoutRate)
	bw.I64(m.Cfg.Seed)
	bw.U32(uint32(len(m.params)))
	for _, p := range m.params {
		bw.String(p.Name)
		bw.Float32s(p.Value.Data)
	}
	bns := m.batchNorms()
	bw.U32(uint32(len(bns)))
	for _, bn := range bns {
		bw.String(bn.Name())
		bw.Float32s(bn.RunningMean)
		bw.Float32s(bn.RunningVar)
	}
	return bw.Flush()
}

// Limits on a name's bytes, a tensor's values and a section's tensors.
const maxNameLen, maxTensorLen, maxTensors = 1 << 16, 1 << 28, 1 << 12

// Load reads a checkpoint written by Save. It reads the whole file before it
// builds the model, and refuses a config that needs more parameter values than
// the file held, so a header cannot make it build a network beyond its file.
func Load(r io.Reader) (*Model, error) {
	br := binio.NewReader(r)
	br.Magic(modelMagic)
	if ver := br.U32(); br.Err() == nil && ver != modelVersion {
		return nil, fmt.Errorf("unet: unsupported checkpoint version %d", ver)
	}
	var cfg Config
	cfg.Name = br.String("config name", maxNameLen)
	cfg.Depth, cfg.BaseFilters, cfg.InChannels, cfg.NumClasses = int(br.U32()), int(br.U32()), int(br.U32()), int(br.U32())
	cfg.DropoutRate = br.F32()
	cfg.Seed = br.I64()
	tensors := make(map[string][]float32) // parameters and running statistics
	supplied := 0                         // parameter values
	for i, n := 0, br.Count("parameter count", maxTensors); i < n && br.Err() == nil; i++ {
		name := br.String("parameter name", maxNameLen)
		tensors[name] = br.Float32s("parameter values", maxTensorLen)
		supplied += len(tensors[name])
	}
	for i, n := 0, br.Count("batch-norm count", maxTensors); i < n && br.Err() == nil; i++ {
		name := br.String("batch-norm name", maxNameLen)
		tensors[name+" running mean"] = br.Float32s("running mean", maxTensorLen)
		tensors[name+" running variance"] = br.Float32s("running variance", maxTensorLen)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("unet: %w", err)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if want := paramCount(cfg); want > supplied {
		return nil, fmt.Errorf("unet: config %s needs %d parameter values, checkpoint supplies %d", cfg.Name, want, supplied)
	}
	m := New(cfg)
	need := make(map[string][]float32, len(tensors))
	for _, p := range m.params {
		need[p.Name] = p.Value.Data
	}
	for _, bn := range m.batchNorms() {
		need[bn.Name()+" running mean"] = bn.RunningMean
		need[bn.Name()+" running variance"] = bn.RunningVar
	}
	if len(tensors) != len(need) {
		return nil, fmt.Errorf("unet: checkpoint has %d distinct tensors, model has %d", len(tensors), len(need))
	}
	for _, name := range slices.Sorted(maps.Keys(need)) {
		got, ok := tensors[name]
		if !ok {
			return nil, fmt.Errorf("unet: %q not in checkpoint", name)
		}
		if len(got) != len(need[name]) {
			return nil, fmt.Errorf("unet: %q has %d values, want %d", name, len(got), len(need[name]))
		}
		copy(need[name], got)
	}
	return m, nil
}

// SaveFile writes the checkpoint to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
