package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"time"
)

// Policy selects how the front door spreads requests across the fleet.
type Policy string

// Placement policies.
const (
	// PolicyLeastLoaded routes every request to the active node with the
	// smallest load (queue depth + in-flight batches). Keyless requests
	// under PolicyHash also fall back to this.
	PolicyLeastLoaded Policy = "least-loaded"
	// PolicyHash consistent-hashes the request key (X-Seneca-Key header)
	// onto a 64-vnode ring, so a keyed client keeps hitting the same node
	// while the topology is stable and only 1/N of keys move when it
	// isn't.
	PolicyHash Policy = "hash"
)

// vnodesPerSlot is how many virtual nodes each fleet slot contributes to
// the consistent-hash ring; 64 keeps the key share per node within a few
// percent of uniform.
const vnodesPerSlot = 64

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	slot int
}

// ring is an immutable consistent-hash ring snapshot; the cluster rebuilds
// it under its topology lock whenever a node joins or leaves.
type ring struct {
	points []ringPoint
}

// buildRing hashes vnodesPerSlot virtual nodes per present slot.
func buildRing(slots []*node) *ring {
	r := &ring{}
	for _, n := range slots {
		if n == nil {
			continue
		}
		for v := 0; v < vnodesPerSlot; v++ {
			h := hashKey("slot-" + strconv.Itoa(n.slot) + "-vnode-" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, slot: n.slot})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// walk returns the distinct slot order encountered walking the ring
// clockwise from h — the preference list for a key, so an ineligible
// primary falls through to the next-nearest node instead of rerolling.
func (r *ring) walk(h uint64) []int {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int]bool)
	var order []int
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.slot] {
			seen[p.slot] = true
			order = append(order, p.slot)
		}
	}
	return order
}

// hashKey is FNV-1a over the key bytes, finished with a splitmix64-style
// avalanche. Raw FNV of short keys that differ only in their last byte
// lands within ~one prime multiple of each other — a band far narrower
// than the gap between ring points, which would park every "patient-N"
// key on the same node. The finisher spreads such neighbours across the
// whole 64-bit ring.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pick chooses the node for one request: ring order for keyed requests
// under PolicyHash, ascending load otherwise. skip holds nodes already
// tried this dispatch; avoid (-1 for none) is a hard slot exclusion that
// survives skip resets — a hedge leg must never land on its primary's
// node. Batch-tier requests are only eligible for nodes below the batch
// admission water mark — that is the preemption mechanism: the top
// (1−BatchWaterFrac) of every queue is reserved for interactive traffic,
// so batch always sheds first. The probe return marks the claim as the node
// breaker's probe, which the caller releases if the request never reaches
// the replica.
func (c *Cluster) pick(key string, tier Tier, skip map[*node]bool, avoid int) (n *node, probe bool) {
	// The topology lock is held for the whole pick, not just the snapshot: a
	// rolling restart swaps one node back in and marks the next draining
	// under the write lock, and a pick that read the slots before the swap
	// and the states after it would find every node it knows draining and
	// shed a request while a fresh node sat idle.
	c.mu.RLock()
	defer c.mu.RUnlock()
	nodes := make([]*node, 0, len(c.slots))
	for _, nd := range c.slots {
		if nd != nil {
			nodes = append(nodes, nd)
		}
	}
	rg := c.ring

	var order []*node
	if c.cfg.Placement == PolicyHash && key != "" {
		bySlot := make(map[int]*node, len(nodes))
		for _, nd := range nodes {
			bySlot[nd.slot] = nd
		}
		for _, slot := range rg.walk(hashKey(key)) {
			if nd := bySlot[slot]; nd != nil {
				order = append(order, nd)
			}
		}
	} else {
		order = append(order, nodes...)
		sort.Slice(order, func(i, j int) bool {
			li, lj := order[i].load(), order[j].load()
			if li != lj {
				return li < lj
			}
			return order[i].slot < order[j].slot // deterministic ties
		})
	}

	now := time.Now()
	// An ejected node whose cooldown has passed goes first: its probe is the
	// only way the fleet regains that capacity, and under light sequential
	// traffic neither order would otherwise reach it — the active node ties
	// at load 0 and wins on slot (or owns the key), so a fleet that finished
	// its burst before the cooldown ran out stayed degraded for good.
	probeDue := func(nd *node) bool {
		at := nd.br.NextProbe()
		return !nd.draining.Load() && !at.IsZero() && !now.Before(at)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return probeDue(order[i]) && !probeDue(order[j])
	})
	for _, nd := range order {
		if skip[nd] || nd.slot == avoid || nd.draining.Load() {
			continue
		}
		if tier == TierBatch && nd.load() >= c.batchWater {
			continue
		}
		if ok, probe := nd.br.Claim(now); ok {
			return nd, probe
		}
	}
	return nil, false
}
