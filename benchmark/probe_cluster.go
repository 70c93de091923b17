package main

// Probe surface — cluster:
//
//	cluster.New, cluster.Config{MinNodes,MaxNodes}, (*cluster.Cluster).Do,
//	.Shutdown, cluster.TierInteractive
//	serve.New, serve.Config (zero value), (*serve.Server).Segment, .Shutdown
//	dpu.New, dpu.ZCU104B4096
//	tensor.FromSlice

import (
	"context"

	"seneca/internal/cluster"
	"seneca/internal/dpu"
	"seneca/internal/serve"
	"seneca/internal/tensor"
)

// probeCluster times what the fleet router adds to one request: Do on an
// idle two-node in-process cluster against Segment on a lone server. Both
// close a batch at one frame, so neither waits out the batching window and
// the difference is the router's own work.
func probeCluster(wk *walk, m *model, pool *slicePool) error {
	factory := func() (*serve.Server, error) {
		return serve.New(dpu.New(dpu.ZCU104B4096()), m.prog, serve.Config{MaxBatch: 1})
	}
	ctx := context.Background()
	shutdown := func(s interface{ Shutdown(context.Context) error }) {
		c, cancel := context.WithTimeout(ctx, drainLimit)
		defer cancel()
		s.Shutdown(c)
	}
	lone, err := factory()
	if err != nil {
		return err
	}
	defer shutdown(lone)
	fleet, err := cluster.New(factory, cluster.Config{MinNodes: 2, MaxNodes: 2})
	if err != nil {
		return err
	}
	defer shutdown(fleet)

	i := 0
	next := func() *tensor.Tensor {
		i++
		return tensor.FromSlice(pool.inputs[i%len(pool.inputs)], 1, m.size, m.size)
	}
	direct := func() error { _, _, err := lone.Segment(ctx, next()); return err }
	routed := func() error { _, err := fleet.Do(ctx, next(), "", cluster.TierInteractive); return err }
	if err := wk.sampleEach(timing{"cluster.segment_us", 1, direct}, timing{"cluster.do_us", 1, routed}); err != nil {
		return err
	}
	wk.set("cluster.do_self_us", wk.get("cluster.do_us")-wk.get("cluster.segment_us"))
	return nil
}
