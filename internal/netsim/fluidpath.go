package netsim

import (
	"encoding/binary"
	"fmt"

	"incastlab/internal/sim"
)

// This file is the backend-neutral path/queue model shared between the
// packet-level fabric builder (NewClos) and the flow-level fluid solver
// (internal/flowsim.RunNetwork). A FluidPaths value describes the data
// path of every flow in an incast as an ordered traversal of port queues
// — each with its own drain rate, ECN threshold, and buffer bound — built
// from the SAME ClosConfig and the SAME seeded ECMP hash the packet
// backend routes with, so both fidelities place every flow on the same
// spine and meet the same bottlenecks.

// FluidQueue is one switch port as a fluid backend sees it: a FIFO that
// drains at the link's effective packet rate, marks CE above the ECN
// threshold, and tail-drops past the buffer bound. Names match the packet
// topology's port-queue names so cross-backend diagnostics line up.
type FluidQueue struct {
	Name string
	// RateBps is the port's line rate; the fluid drain rate is the
	// effective IP-packet rate under the x1500/1538 wire-overhead
	// contract (see flowsim.EffectivePacketRate).
	RateBps int64
	// CapacityPackets bounds the queue; ECNThresholdPackets is K.
	CapacityPackets     int
	ECNThresholdPackets int
}

// FluidPaths is a queue network plus each flow's ordered traversal of it,
// stored per path class: flows that cross the identical queue list with
// the identical base RTT share one class, so a million-flow incast over a
// few hundred distinct routes costs a few hundred paths plus one class ID
// per flow. Paths[c] lists class c's queue indices from the source
// outward and BaseRTT[c] is its uncongested round-trip; Class[i] is flow
// i's class. Stage assigns every queue a topological level such that
// stages strictly increase along every path (the fluid step integrates
// queues in stage order, so volume forwarded out of one hop is visible to
// the next within the same step). Bottleneck is the queue the run's
// headline statistics sample (the aggregator's leaf downlink port in an
// incast).
type FluidPaths struct {
	Queues     []FluidQueue
	Paths      [][]int32
	BaseRTT    []sim.Time
	Class      []int32
	Stage      []int
	Bottleneck int
}

// Validate checks the structural invariants RunNetwork relies on.
func (p *FluidPaths) Validate() error {
	if len(p.Queues) == 0 {
		return fmt.Errorf("netsim: fluid path set has no queues")
	}
	if len(p.Paths) != len(p.BaseRTT) {
		return fmt.Errorf("netsim: fluid path set has %d path classes but %d base RTTs", len(p.Paths), len(p.BaseRTT))
	}
	if len(p.Stage) != len(p.Queues) {
		return fmt.Errorf("netsim: fluid path set has %d queues but %d stages", len(p.Queues), len(p.Stage))
	}
	if p.Bottleneck < 0 || p.Bottleneck >= len(p.Queues) {
		return fmt.Errorf("netsim: fluid bottleneck index %d outside the %d queues", p.Bottleneck, len(p.Queues))
	}
	for j, q := range p.Queues {
		if q.RateBps <= 0 || q.CapacityPackets <= 0 || q.ECNThresholdPackets <= 0 {
			return fmt.Errorf("netsim: fluid queue %d (%s) needs positive rate, capacity, and ECN threshold", j, q.Name)
		}
	}
	for c, path := range p.Paths {
		if len(path) == 0 {
			return fmt.Errorf("netsim: fluid path class %d has an empty path", c)
		}
		if p.BaseRTT[c] <= 0 {
			return fmt.Errorf("netsim: fluid path class %d has non-positive base RTT", c)
		}
		prev := -1
		for _, j := range path {
			if j < 0 || int(j) >= len(p.Queues) {
				return fmt.Errorf("netsim: fluid path class %d references queue %d outside the %d queues", c, j, len(p.Queues))
			}
			if s := p.Stage[j]; s <= prev {
				return fmt.Errorf("netsim: fluid path class %d is not stage-monotonic at queue %d (%s)", c, j, p.Queues[j].Name)
			} else {
				prev = s
			}
		}
	}
	for i, c := range p.Class {
		if c < 0 || int(c) >= len(p.Paths) {
			return fmt.Errorf("netsim: fluid flow %d names path class %d outside the %d classes", i, c, len(p.Paths))
		}
	}
	return nil
}

// PathClasses partitions the flows into path-equivalence classes: two
// flows are in one class iff they traverse the identical ordered queue
// list (which encodes the ECMP spine choice — same seed, same hash, same
// spine — so aggregating a class never blurs routing) with the identical
// base RTT. Returns a dense class ID per flow, assigned in first-appearance
// order (deterministic given the path set), and the class count. This is
// the partition flowsim's cohort aggregation keys on: within a class the
// workload layer already guarantees one CC law, one demand, and one
// release schedule, so the path is the only behavioral discriminant left.
//
// Each stored class is canonicalized once (hand-built path sets may store
// one route under several class IDs); flows then cost one array lookup.
// When the stored IDs already are the canonical ones, as ClosConfig's
// builder guarantees, the returned slice is p.Class itself and must not
// be modified.
func (p *FluidPaths) PathClasses() ([]int32, int) {
	byRoute := make(map[string]int32)
	var buf []byte
	canonical := func(c, next int32) int32 {
		buf = buf[:0]
		for _, j := range p.Paths[c] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.BaseRTT[c]))
		if id, ok := byRoute[string(buf)]; ok {
			return id
		}
		byRoute[string(buf)] = next
		return next
	}
	canon := newPortIndex(len(p.Paths))
	next := int32(0)
	identity := true
	for _, c := range p.Class {
		if canon[c] >= 0 {
			continue
		}
		id := canonical(c, next)
		if id == next {
			next++
		}
		canon[c] = id
		identity = identity && id == c
	}
	if identity {
		return p.Class, int(next)
	}
	classOf := make([]int32, len(p.Class))
	for i, c := range p.Class {
		classOf[i] = canon[c]
	}
	return classOf, int(next)
}

// newPortIndex returns an n-slot index with every slot unresolved (-1).
func newPortIndex(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Stages returns the number of distinct topological levels (max stage + 1).
func (p *FluidPaths) Stages() int {
	max := 0
	for _, s := range p.Stage {
		if s > max {
			max = s
		}
	}
	return max + 1
}

// FluidPaths builds the queue network an incast's data packets traverse
// over this fabric: flow i runs from host srcs[i] to host dsts[i] with
// FlowID i+1, exactly as workload.ClosIncast numbers its senders. Queues
// appear on demand in first-use order:
//
//   - same-rack flows cross only the destination's leaf downlink port;
//   - cross-rack flows cross their source leaf's uplink to the spine
//     ECMPIndex picks for (seed, flow i+1, src, dst) — the identical hash
//     Switch.Receive applies — then that spine's downlink port into the
//     destination rack, then the destination's leaf downlink port.
//
// Host NIC queues are unbounded on the packet side (host-side drops would
// mask the fabric behavior under study) and are therefore omitted here;
// the fluid injection rate is capped at the host line rate instead. ACK
// paths carry negligible volume and are folded into BaseRTT. Stages are
// uplink=0, spine downlink=1, leaf downlink=2, so every path is
// stage-monotonic. The bottleneck is dsts[0]'s leaf port.
//
// A flow's route is fixed by its destination host (which names the leaf
// downlink) and, off-rack, by its source rack and spine pick, so classes
// are keyed on (destination, source rack x spine) with one extra slot for
// same-rack flows, and numbered in first-appearance order — the IDs
// PathClasses would assign. A new queue is always first used by a new
// class, so creating queues per new class keeps them in flow-order first
// use.
func (c ClosConfig) FluidPaths(srcs, dsts []NodeID) (*FluidPaths, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) == 0 || len(srcs) != len(dsts) {
		return nil, fmt.Errorf("netsim: fluid paths need matching src/dst lists (got %d/%d)", len(srcs), len(dsts))
	}
	p := &FluidPaths{
		Class:      make([]int32, len(srcs)),
		Bottleneck: -1,
	}
	addQueue := func(name string, rateBps int64, stage int) int32 {
		j := int32(len(p.Queues))
		p.Queues = append(p.Queues, FluidQueue{
			Name:                name,
			RateBps:             rateBps,
			CapacityPackets:     c.QueueCapacityPackets,
			ECNThresholdPackets: c.ECNThresholdPackets,
		})
		p.Stage = append(p.Stage, stage)
		return j
	}
	// Port indices resolved positionally — uplink per (source rack, spine),
	// spine downlink per (spine, destination rack) — and downlinks per
	// destination host on demand: all are consulted only when a new class
	// appears, so the per-flow loop is one hash and one table probe.
	hosts := c.Hosts()
	downIdx := make(map[NodeID]int32)
	upIdx := newPortIndex(c.Racks * c.Spines)
	sdIdx := newPortIndex(c.Spines * c.Racks)
	sameRack := uint64(c.Racks * c.Spines)
	classOf := make(map[uint64]int32)

	for i := range srcs {
		src, dst := srcs[i], dsts[i]
		if int(src) < 0 || int(src) >= hosts || int(dst) < 0 || int(dst) >= hosts {
			return nil, fmt.Errorf("netsim: fluid flow %d endpoints %d->%d outside the %d fabric hosts", i, src, dst, hosts)
		}
		if src == dst {
			return nil, fmt.Errorf("netsim: fluid flow %d sends host %d to itself", i, src)
		}
		srcRack, dstRack := c.RackOf(src), c.RackOf(dst)
		slot, s := sameRack, 0
		if srcRack != dstRack {
			s = ECMPIndex(c.ECMPSeed, FlowID(i+1), src, dst, c.Spines)
			slot = uint64(srcRack*c.Spines + s)
		}
		k := uint64(dst)*(sameRack+1) + slot
		id, ok := classOf[k]
		if !ok {
			id = int32(len(p.Paths))
			classOf[k] = id
			down, ok := downIdx[dst]
			if !ok {
				dstSlot := int(dst) - dstRack*c.HostsPerRack
				down = addQueue(fmt.Sprintf("leaf-%d-port-%d", dstRack, dstSlot), c.HostLinkBps, 2)
				downIdx[dst] = down
			}
			if srcRack == dstRack {
				p.Paths = append(p.Paths, []int32{down})
				p.BaseRTT = append(p.BaseRTT, c.BaseRTT(false))
			} else {
				up := upIdx[srcRack*c.Spines+s]
				if up < 0 {
					up = addQueue(fmt.Sprintf("leaf-%d-uplink-%d", srcRack, s), c.SpineLinkBps, 0)
					upIdx[srcRack*c.Spines+s] = up
				}
				sd := sdIdx[s*c.Racks+dstRack]
				if sd < 0 {
					sd = addQueue(fmt.Sprintf("spine-%d-port-%d", s, dstRack), c.SpineLinkBps, 1)
					sdIdx[s*c.Racks+dstRack] = sd
				}
				p.Paths = append(p.Paths, []int32{up, sd, down})
				p.BaseRTT = append(p.BaseRTT, c.BaseRTT(true))
			}
			if p.Bottleneck < 0 {
				p.Bottleneck = int(down)
			}
		}
		p.Class[i] = id
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
