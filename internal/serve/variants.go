package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/obs"
	"seneca/internal/tensor"
	"seneca/internal/xmodel"
)

// VariantProvider supplies named compiled model variants — the serving-side
// view of an mpq.Registry. Implementations must return names in a stable
// order and nil for unknown names.
type VariantProvider interface {
	VariantNames() []string
	Program(name string) *xmodel.Program
}

// TierConfig maps request tiers onto model variants. Clients select a tier
// with the X-Seneca-Tier header (or pin a variant directly with
// X-Seneca-Variant); requests without either header use Default.
type TierConfig struct {
	// Default is the variant for untagged requests.
	Default string
	// Tiers maps a tier name (e.g. "interactive", "batch") to the variant
	// that answers it.
	Tiers map[string]string
}

// Validate checks every referenced variant exists in the provider.
func (tc TierConfig) Validate(vp VariantProvider) error {
	if tc.Default == "" {
		return errors.New("serve: tier config has no default variant")
	}
	if vp.Program(tc.Default) == nil {
		return fmt.Errorf("serve: default variant %q not registered", tc.Default)
	}
	tiers := make([]string, 0, len(tc.Tiers))
	for tier := range tc.Tiers {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		if vp.Program(tc.Tiers[tier]) == nil {
			return fmt.Errorf("serve: tier %q routes to unregistered variant %q", tier, tc.Tiers[tier])
		}
	}
	return nil
}

// VariantFront serves a whole variant registry behind one HTTP surface:
// one micro-batching Server per registered variant, all sharing the
// device, with per-request variant selection by tier. This is how the
// mixed-precision search's Pareto frontier reaches production: interactive
// requests ride the fast low-precision variant, batch requests the
// accurate one, without redeploying anything.
type VariantFront struct {
	dev      *dpu.Device
	provider VariantProvider
	tiers    TierConfig
	order    []string
	servers  map[string]*Server

	reg       *obs.Registry
	mRequests map[string]*obs.Counter

	brown *brownout
}

// NewVariantFront builds one Server per provided variant and wires tier
// routing. All variants must share the same input geometry (they are
// quantizations of the same model). cfg applies to every per-variant
// server; cfg.Metrics (or a fresh registry) receives the front's
// seneca_serve_variant_requests_total series and is what GET /metrics
// serves.
func NewVariantFront(dev *dpu.Device, vp VariantProvider, tiers TierConfig, cfg Config) (*VariantFront, error) {
	if dev == nil {
		return nil, errors.New("serve: nil device")
	}
	if vp == nil {
		return nil, errors.New("serve: nil variant provider")
	}
	names := vp.VariantNames()
	if len(names) == 0 {
		return nil, errors.New("serve: variant provider is empty")
	}
	if err := tiers.Validate(vp); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Per-variant servers keep private registries: their series are
	// identical families and would collide on the shared scrape; the front
	// re-exports the cross-variant view instead.
	serverCfg := cfg
	serverCfg.Metrics = nil
	serverCfg.Brownout = nil

	f := &VariantFront{
		dev:       dev,
		provider:  vp,
		tiers:     tiers,
		servers:   make(map[string]*Server, len(names)),
		reg:       reg,
		mRequests: make(map[string]*obs.Counter, len(names)),
	}
	var geoC, geoH, geoW int
	for i, name := range names {
		prog := vp.Program(name)
		if prog == nil {
			return nil, fmt.Errorf("serve: provider listed %q but returned no program", name)
		}
		g := prog.Graph
		if i == 0 {
			geoC, geoH, geoW = g.InC, g.InH, g.InW
		} else if g.InC != geoC || g.InH != geoH || g.InW != geoW {
			f.shutdownAll()
			return nil, fmt.Errorf("serve: variant %q input %d×%d×%d differs from %q's %d×%d×%d",
				name, g.InC, g.InH, g.InW, names[0], geoC, geoH, geoW)
		}
		s, err := New(dev, prog, serverCfg)
		if err != nil {
			f.shutdownAll()
			return nil, fmt.Errorf("serve: variant %q: %w", name, err)
		}
		f.order = append(f.order, name)
		f.servers[name] = s
		f.mRequests[name] = reg.Counter("seneca_serve_variant_requests_total",
			"Requests answered per model variant.", obs.L("variant", name))
	}
	if cfg.Brownout != nil {
		bc := cfg.Brownout.withDefaults()
		if err := bc.validate(vp); err != nil {
			f.shutdownAll()
			return nil, err
		}
		f.brown = newBrownout(f, bc)
	}
	return f, nil
}

func (f *VariantFront) shutdownAll() {
	for _, s := range f.servers {
		s.Shutdown(context.Background())
	}
}

// VariantNames lists the served variants in provider order.
func (f *VariantFront) VariantNames() []string {
	return append([]string(nil), f.order...)
}

// Server returns the per-variant server, or nil for unknown names — the
// escape hatch for tests and for callers that need Stats of one variant.
func (f *VariantFront) Server(name string) *Server { return f.servers[name] }

// resolve maps an explicit variant pin and a tier to the serving variant
// name, or an error when either names something unknown.
func (f *VariantFront) resolve(variant, tier string) (string, error) {
	if variant != "" {
		if _, ok := f.servers[variant]; !ok {
			return "", fmt.Errorf("serve: unknown variant %q", variant)
		}
		return variant, nil
	}
	if tier != "" {
		name, ok := f.tiers.Tiers[tier]
		if !ok {
			return "", fmt.Errorf("serve: unknown tier %q", tier)
		}
		return name, nil
	}
	return f.tiers.Default, nil
}

// Submit routes one in-process request by tier ("" means the default tier)
// and returns the mask plus the variant that actually answered — under
// brownout that may be a cheaper rung than the tier's nominal variant.
func (f *VariantFront) Submit(ctx context.Context, tier string, img *tensor.Tensor) (mask []uint8, variant string, err error) {
	name, err := f.resolve("", tier)
	if err != nil {
		return nil, "", err
	}
	name = f.served(name, false)
	mask, err = f.servers[name].Submit(ctx, img)
	if err == nil {
		f.mRequests[name].Inc()
	}
	return mask, name, err
}

// Shutdown stops the brownout controller and drains every per-variant
// server. The first error wins but every server is asked to stop.
func (f *VariantFront) Shutdown(ctx context.Context) error {
	if f.brown != nil {
		f.brown.close()
	}
	var first error
	for _, name := range f.order {
		if err := f.servers[name].Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Handler returns the front's HTTP surface — the same routes a single
// Server exposes, with variant routing on /v1/segment:
//
//	POST /v1/segment   X-Seneca-Tier or X-Seneca-Variant selects the model;
//	                   the response carries X-Seneca-Variant
//	GET  /healthz      per-variant health, 503 when every variant drains
//	GET  /statz        map of variant name → Stats
//	GET  /metrics      the front registry (variant request counters)
func (f *VariantFront) Handler() http.Handler {
	first := f.servers[f.order[0]] // every variant has its geometry and body cap
	c, h, w := first.InputShape()
	d := &Door[variantRoute]{
		C: c, H: h, W: w, MaxBody: first.cfg.MaxBodyBytes,
		Route:      f.route,
		Segment:    f.segment,
		RetryAfter: func(rt variantRoute) time.Duration { return f.servers[rt.served].RetryAfter() },
	}
	return d.Mux(f.healthz, f.stats, f.reg.Handler())
}

// variantRoute is a request's variant: the one its headers resolve to and the
// one serving it, a cheaper brownout rung unless the client pinned a variant.
type variantRoute struct{ nominal, served string }

func (f *VariantFront) route(r *http.Request) (variantRoute, int, error) {
	pin := r.Header.Get("X-Seneca-Variant")
	name, err := f.resolve(pin, r.Header.Get("X-Seneca-Tier"))
	if err != nil {
		return variantRoute{}, http.StatusNotFound, err
	}
	return variantRoute{name, f.served(name, pin != "")}, 0, nil
}

func (f *VariantFront) segment(ctx context.Context, rt variantRoute, img *tensor.Tensor, h http.Header) ([]uint8, int, error) {
	mask, occupancy, err := f.servers[rt.served].submit(ctx, img)
	if err != nil {
		return nil, 0, err
	}
	f.mRequests[rt.served].Inc()
	// X-Seneca-Variant is the nominally resolved variant; under brownout
	// X-Seneca-Served-Variant names the (possibly cheaper) rung that
	// actually computed the mask, so degradation is observable per request.
	h.Set("X-Seneca-Variant", rt.nominal)
	h.Set(ServedVariantHeader, rt.served)
	return mask, occupancy, nil
}

// healthz is one status row per variant, keyed by variant name; 503 once every
// variant drains.
func (f *VariantFront) healthz() (int, any) {
	type vh struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
		Healthy  int    `json:"healthy_runners"`
	}
	out := make(map[string]vh, len(f.order))
	status := http.StatusServiceUnavailable
	for _, name := range f.order {
		s := f.servers[name]
		h := s.Health()
		row := vh{"ok", s.Draining(), h.Healthy}
		switch {
		case row.Draining:
			row.Status = "draining"
		case h.Healthy == 0:
			row.Status = "unhealthy"
		case h.Degraded:
			row.Status = "degraded"
		}
		if !row.Draining {
			status = http.StatusOK
		}
		out[name] = row
	}
	return status, out
}

// stats is one Stats row per variant, keyed by variant name.
func (f *VariantFront) stats() any {
	out := make(map[string]Stats, len(f.order))
	for _, name := range f.order {
		out[name] = f.servers[name].Stats()
	}
	return out
}
