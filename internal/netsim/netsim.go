// Package netsim is a fluid-flow network model: flows between physical
// nodes share per-node NIC uplink/downlink capacity under global max-min
// fairness, recomputed whenever a flow starts or finishes. Traffic between
// VMs on the same physical node crosses the software bridge instead of the
// NIC, at a higher capacity.
//
// This level of detail is enough for the paper's effects: shuffle
// all-to-all traffic contends on 1 GbE NICs (Fig 7d's scale trend) without
// modelling packets.
package netsim

import (
	"math"

	"adaptmr/internal/sim"
)

// Config sets link capacities in bytes/second.
type Config struct {
	// NICBps is per-node NIC capacity each direction (1 GbE ≈ 117 MiB/s
	// effective after protocol overhead).
	NICBps float64
	// BridgeBps is intra-node VM-to-VM capacity through the Xen bridge.
	BridgeBps float64
}

// DefaultConfig models the paper's 1 Gb/s Ethernet.
func DefaultConfig() Config {
	return Config{NICBps: 117e6, BridgeBps: 400e6}
}

// Flow is one in-progress transfer.
type Flow struct {
	src, dst  int
	bytes     float64 // total transfer size
	remaining float64 // bytes
	rate      float64 // bytes/sec, recomputed on membership changes
	start     sim.Time
	done      func()
	canceled  bool
}

// Rate returns the flow's current allocation in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Src returns the source physical node.
func (f *Flow) Src() int { return f.src }

// Dst returns the destination physical node.
func (f *Flow) Dst() int { return f.dst }

// Bytes returns the total transfer size.
func (f *Flow) Bytes() float64 { return f.bytes }

// Start returns when the transfer was issued.
func (f *Flow) Start() sim.Time { return f.start }

// Cancel abandons the transfer without invoking its callback.
func (f *Flow) Cancel() { f.canceled = true }

// Stats aggregates network activity.
type Stats struct {
	Flows       int64
	Bytes       float64
	BridgeFlows int64
}

// Network simulates the cluster fabric.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes int

	flows      []*Flow // insertion order, for deterministic accounting
	lastUpdate sim.Time
	next       *sim.Event

	stats Stats

	// Water-filling scratch, indexed by link (node*3+kind) or by flow
	// position in flows; reset, not reallocated, by each recompute.
	links    []int // links in first-use order
	capLeft  []float64
	unfrozen []int // unfrozen member flows per link
	members  [][]int32
	frozen   []bool

	// OnFlowDone, if set, observes every non-cancelled flow as it finishes
	// (tracing hook; netsim itself stays observability-agnostic).
	OnFlowDone func(f *Flow)
}

// New creates a network joining the given number of physical nodes.
func New(eng *sim.Engine, nodes int, cfg Config) *Network {
	if nodes <= 0 || cfg.NICBps <= 0 || cfg.BridgeBps <= 0 {
		panic("netsim: invalid config")
	}
	return &Network{
		eng: eng, cfg: cfg, nodes: nodes,
		capLeft:  make([]float64, 3*nodes),
		unfrozen: make([]int, 3*nodes),
		members:  make([][]int32, 3*nodes),
	}
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats { return n.stats }

// Active returns the number of in-flight flows.
func (n *Network) Active() int { return len(n.flows) }

// Send starts a transfer of bytes from src node to dst node and invokes
// done on completion. Zero-byte transfers complete immediately (next
// event).
func (n *Network) Send(src, dst int, bytes float64, done func()) *Flow {
	if src < 0 || src >= n.nodes || dst < 0 || dst >= n.nodes {
		panic("netsim: node out of range")
	}
	if bytes < 0 {
		panic("netsim: negative transfer")
	}
	n.advance()
	f := &Flow{src: src, dst: dst, bytes: bytes, remaining: bytes, start: n.eng.Now(), done: done}
	n.flows = append(n.flows, f)
	n.stats.Flows++
	if src == dst {
		n.stats.BridgeFlows++
	}
	n.recompute()
	return f
}

// advance drains progress since the last membership change.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := now.Sub(n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		moved := f.rate * dt
		f.remaining -= moved
		n.stats.Bytes += moved
	}
}

// recompute re-solves every flow's rate and re-arms the next completion
// event.
func (n *Network) recompute() {
	if n.next != nil {
		n.next.Cancel()
		n.next = nil
	}
	n.waterFill()
	n.arm()
}

// waterFill performs max-min water-filling over all links.
//
// Links are dense indices node*3+kind (kind 0 = NIC up, 1 = NIC down,
// 2 = bridge) into scratch slices kept on the Network, so water-filling
// allocates nothing once the scratch has grown. Equal NIC capacities make
// ties between links common; they are broken deterministically by scanning
// links in first-use order (as first touched walking n.flows in insertion
// order) and keeping the first strictly smallest share.
func (n *Network) waterFill() {
	for _, l := range n.links {
		n.unfrozen[l] = 0
		n.members[l] = n.members[l][:0]
	}
	n.links = n.links[:0]

	// Build link membership in first-use order. Counts were reset above,
	// so a zero count marks a link not yet seen in this solve.
	for i, f := range n.flows {
		ls, k := flowLinks(f)
		for _, l := range ls[:k] {
			if n.unfrozen[l] == 0 {
				if l%3 == 2 {
					n.capLeft[l] = n.cfg.BridgeBps
				} else {
					n.capLeft[l] = n.cfg.NICBps
				}
				n.links = append(n.links, l)
			}
			n.unfrozen[l]++
			n.members[l] = append(n.members[l], int32(i))
		}
	}

	if cap(n.frozen) < len(n.flows) {
		n.frozen = make([]bool, len(n.flows))
	}
	frozen := n.frozen[:len(n.flows)]
	clear(frozen)
	for left := len(n.flows); left > 0; {
		// Find the bottleneck link: smallest fair share among links with
		// unfrozen flows.
		bott := -1
		best := math.Inf(1)
		for _, l := range n.links {
			if k := n.unfrozen[l]; k > 0 {
				if share := n.capLeft[l] / float64(k); share < best {
					best, bott = share, l
				}
			}
		}
		if bott < 0 {
			break
		}
		for _, i := range n.members[bott] {
			if frozen[i] {
				continue
			}
			frozen[i] = true
			left--
			f := n.flows[i]
			f.rate = best
			ls, k := flowLinks(f)
			for _, l := range ls[:k] {
				n.unfrozen[l]--
				n.capLeft[l] = max(n.capLeft[l]-best, 0)
			}
		}
	}
}

// arm schedules completion for the earliest-finishing flow.
func (n *Network) arm() {
	eta := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < eta {
			eta = t
		}
	}
	if math.IsInf(eta, 1) {
		return
	}
	if eta < 0 {
		eta = 0
	}
	d := sim.DurationFromSeconds(eta)
	if d == 0 && eta > 0 {
		// Sub-nanosecond residue must still advance the clock, or the
		// completion event would loop at the current instant forever.
		d = 1
	}
	n.next = n.eng.Schedule(d, n.completeDue)
}

// flowLinks returns the link indices f crosses: its node's bridge for an
// intra-node flow, else the source uplink and destination downlink.
func flowLinks(f *Flow) ([2]int, int) {
	if f.src == f.dst {
		return [2]int{f.src*3 + 2}, 1
	}
	return [2]int{f.src * 3, f.dst*3 + 1}, 2
}

// completeDue retires all flows that have drained.
func (n *Network) completeDue() {
	n.next = nil
	n.advance()
	const eps = 1.0 // sub-byte residue is float noise
	var finished []*Flow
	live := n.flows[:0]
	for _, f := range n.flows {
		if f.remaining <= eps {
			finished = append(finished, f)
		} else {
			live = append(live, f)
		}
	}
	n.flows = live
	n.recompute()
	for _, f := range finished {
		if f.canceled {
			continue
		}
		if n.OnFlowDone != nil {
			n.OnFlowDone(f)
		}
		if f.done != nil {
			f.done()
		}
	}
}
