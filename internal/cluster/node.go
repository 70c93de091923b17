package cluster

import (
	"sync"
	"time"

	"seneca/internal/serve"
)

// NodeState is one replica's routing position in the fleet.
type NodeState int32

// Node states. A node starts Active; FailThreshold consecutive dispatch
// failures eject it (traffic stops, EjectCooldown passes, then a single
// probe request tests it back in — the per-runner breaker of PR 5
// generalized one level up, to the whole replica); Draining nodes are being
// retired or rolled and accept no new traffic.
const (
	NodeActive NodeState = iota
	NodeDraining
	NodeEjected
)

// String returns the lowercase node-state name used in metrics labels and
// the /healthz body.
func (s NodeState) String() string {
	switch s {
	case NodeActive:
		return "active"
	case NodeDraining:
		return "draining"
	case NodeEjected:
		return "ejected"
	}
	return "unknown"
}

// node wraps one in-process serve.Server replica with the cluster's view
// of its health. The serve tier underneath still self-heals its own runner
// pool; the node layer decides whether the replica as a whole receives
// traffic.
type node struct {
	slot int // fleet slot index, stable across the node's lifetime
	gen  int // spawn generation (monotonic across the cluster's lifetime)
	srv  *serve.Server

	mu        sync.Mutex
	state     NodeState
	fails     int       // consecutive dispatch failures
	openUntil time.Time // when an ejected node admits its probe
	probing   bool      // an eject probe request is in flight
}

// load is the routing signal: queued requests plus in-flight batches.
// Reads are atomic on the serve side, so placement scans stay cheap.
func (n *node) load() int {
	return n.srv.QueueDepth() + n.srv.InFlightBatches()
}

// stateNow returns the node's current state.
func (n *node) stateNow() NodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// routable reports whether the node may receive one request now. An
// ejected node past its cooldown admits exactly one probe at a time; the
// probe return marks the claim as that probe so the caller can release it
// if the request never reaches the replica.
func (n *node) routable(now time.Time) (ok, probe bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.state {
	case NodeActive:
		return true, false
	case NodeEjected:
		if n.probing || now.Before(n.openUntil) {
			return false, false
		}
		n.probing = true
		return true, true
	}
	return false, false
}

// probeEta reports whether the node is ejected and, if so, how long until
// it admits its probe (zero when the cooldown has passed but the probe is
// claimed or about to be).
func (n *node) probeEta(now time.Time) (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state != NodeEjected {
		return 0, false
	}
	if now.Before(n.openUntil) {
		return n.openUntil.Sub(now), true
	}
	return 0, true
}

// probeDue reports whether the node is ejected, past its cooldown and not
// already being probed — i.e. whether the next request should be its probe.
func (n *node) probeDue(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state == NodeEjected && !n.probing && !now.Before(n.openUntil)
}

// releaseProbe undoes a probe claim whose request never completed against
// the replica (context expired first), so an ejected node cannot leak its
// single probe slot.
func (n *node) releaseProbe() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.probing = false
}

// recordSuccess clears the failure streak and readmits an ejected node
// whose probe just came back healthy.
func (n *node) recordSuccess() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails = 0
	n.probing = false
	if n.state == NodeEjected {
		n.state = NodeActive
	}
}

// recordFailure counts one dispatch failure and returns true when it
// ejected the node — at threshold consecutive failures from Active, or
// immediately on a failed probe (which restarts the cooldown).
func (n *node) recordFailure(threshold int, cooldown time.Duration) (ejected bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails++
	n.probing = false
	switch n.state {
	case NodeActive:
		if n.fails < threshold {
			return false
		}
	case NodeDraining:
		return false
	case NodeEjected:
		n.openUntil = time.Now().Add(cooldown)
		return false
	}
	n.state = NodeEjected
	n.openUntil = time.Now().Add(cooldown)
	return true
}

// setDraining removes the node from routing ahead of a retire or rolling
// restart. In-flight and queued work still completes (serve.Shutdown
// drains it); only new placement skips the node.
func (n *node) setDraining() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state = NodeDraining
}
