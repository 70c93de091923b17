package cluster

import (
	"sync/atomic"

	"seneca/internal/breaker"
	"seneca/internal/serve"
)

// NodeState is one replica's routing position in the fleet, by the name
// metrics labels and the /healthz body use.
type NodeState string

// Node states. A node starts Active; FailThreshold consecutive dispatch
// failures eject it (traffic stops, EjectCooldown passes, then a single
// probe request tests it back in — the per-runner breaker of internal/serve,
// one level up, to the whole replica); Draining nodes are being retired or
// rolled and accept no new traffic.
const (
	NodeActive   NodeState = "active"
	NodeDraining NodeState = "draining"
	NodeEjected  NodeState = "ejected"
)

// node wraps one in-process serve.Server replica with the cluster's view
// of its health. The serve tier underneath still self-heals its own runner
// pool; the node's breaker decides whether the replica as a whole receives
// traffic, and its draining flag takes it out of routing for good.
type node struct {
	slot int // fleet slot index, stable across the node's lifetime
	gen  int // spawn generation (monotonic across the cluster's lifetime)
	srv  *serve.Server

	br       *breaker.Breaker
	draining atomic.Bool
}

// load is the routing signal: queued requests plus in-flight batches.
// Reads are atomic on the serve side, so placement scans stay cheap.
func (n *node) load() int {
	return n.srv.QueueDepth() + n.srv.InFlightBatches()
}

// stateNow derives the node's state from its draining flag and breaker: any
// breaker position but closed is an ejection.
func (n *node) stateNow() NodeState {
	switch {
	case n.draining.Load():
		return NodeDraining
	case n.br.State() != breaker.Closed:
		return NodeEjected
	}
	return NodeActive
}
