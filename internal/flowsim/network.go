package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
)

// This file generalizes the fluid engine from one hardcoded bottleneck to
// a queue network: every flow traverses an ordered list of port queues
// (netsim.FluidPaths — the backend-neutral path model the packet Clos
// builder shares), each queue integrates its own backlog, ECN marking,
// and tail drops per step, and flows are coupled through min-rate
// allocation along their paths — a flow's throughput is implicitly the
// minimum of its per-hop pro-rata service rates, because any hop serving
// slower than the hops upstream accumulates the flow's backlog and
// throttles what reaches the hops downstream.
//
// The single-queue dumbbell is the trivial one-queue instance: RunNetwork
// delegates it to the optimized single-queue engine (Run), and the
// general integrator reproduces that engine's per-step dynamics exactly
// at the final hop (serve-then-admit ordering, rackmodel-style mark
// fractions, newest-release-first tail drops, RTO stalls), so the two
// solvers agree on the paper's mode taxonomy by construction
// (TestNetworkSingleQueueEquivalence pins it).
//
// Transit hops (leaf uplinks, spine downlinks — every queue that is never
// a path's terminal) additionally cut through: arrivals that fit in the
// hop's spare service this step are forwarded immediately instead of
// waiting a step, so an idle 100G fabric hop adds (near) zero latency and
// the effective RTT of a cross-rack flow stays at its base RTT plus real
// queueing. The terminal hop never cuts through, keeping the one-queue
// instance's serve-then-admit contract intact.

// NetworkConfig describes one fluid run over a queue network. The
// embedded Config supplies the workload (flows, demand, bursts, jitter,
// seed), transport (RTO bounds, dup-ACK threshold, CC law), and
// integration knobs; its single-bottleneck fields (LineRateBps as the
// host NIC injection cap aside) are superseded by the per-queue rates and
// bounds in Net. Config.BaseRTT seeds the CC defaults (Swift's target
// delay); per-flow base RTTs come from Net.BaseRTT.
type NetworkConfig struct {
	Config

	// Net is the queue network and per-flow path assignment, typically
	// built by netsim.ClosConfig.FluidPaths so the ECMP spine choice
	// matches the packet backend flow for flow.
	Net *netsim.FluidPaths
}

// RunNetwork executes the fluid simulation over the queue network. The
// trivial one-queue instance (every path the same single queue at the
// host line rate, one base RTT) delegates to the optimized single-queue
// engine; everything else runs the general multi-queue integrator.
func RunNetwork(cfg NetworkConfig) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	if cfg.trivial() {
		return Run(cfg.Config)
	}
	// Cohort equivalence over a network is the path partition: the workload
	// fields are uniform across flows, so (ordered queue path incl. the
	// ECMP spine choice, base RTT) is the only behavioral discriminant.
	var plan cohortPlan
	if cfg.cohortEnabled() {
		classOf, nClasses := cfg.Net.PathClasses()
		plan = buildPlan(&cfg.Config, classOf, nClasses)
	} else {
		plan = singletonPlan(cfg.Flows)
	}
	e := newNetEngine(cfg, plan)
	defer e.release()
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish()
}

// prepare validates the network, checks it against the workload, and
// folds the bottleneck queue's parameters into the embedded Config so
// sampling, classification, and the Result echo describe the queue under
// study.
func (cfg *NetworkConfig) prepare() error {
	if cfg.Net == nil {
		return fmt.Errorf("flowsim: network run needs a queue network (NetworkConfig.Net)")
	}
	if err := cfg.Net.Validate(); err != nil {
		return err
	}
	if cfg.Flows != len(cfg.Net.Paths) {
		return fmt.Errorf("flowsim: %d flows but %d network paths", cfg.Flows, len(cfg.Net.Paths))
	}
	b := cfg.Net.Queues[cfg.Net.Bottleneck]
	cfg.QueueCapacityPackets = b.CapacityPackets
	cfg.ECNThresholdPackets = b.ECNThresholdPackets
	if cfg.BaseRTT <= 0 {
		// Default the CC base RTT to the slowest path's, the conservative
		// choice for Swift's target delay.
		for _, rtt := range cfg.Net.BaseRTT {
			if rtt > cfg.BaseRTT {
				cfg.BaseRTT = rtt
			}
		}
	}
	return cfg.fill()
}

// trivial reports whether the network is the one-queue dumbbell instance
// the single-queue engine already solves: a single queue at the host line
// rate that every flow traverses alone, with one shared base RTT.
func (cfg *NetworkConfig) trivial() bool {
	n := cfg.Net
	if len(n.Queues) != 1 || n.Queues[0].RateBps != cfg.LineRateBps {
		return false
	}
	for i, p := range n.Paths {
		if len(p) != 1 || p[0] != 0 || n.BaseRTT[i] != cfg.BaseRTT {
			return false
		}
	}
	return true
}

// SingleQueue wraps a single-bottleneck Config as its equivalent
// one-queue network, for callers and tests that want the general solver's
// view of the dumbbell.
func SingleQueue(cfg Config) (NetworkConfig, error) {
	if err := cfg.fill(); err != nil {
		return NetworkConfig{}, err
	}
	net := &netsim.FluidPaths{
		Queues: []netsim.FluidQueue{{
			Name:                "bottleneck",
			RateBps:             cfg.LineRateBps,
			CapacityPackets:     cfg.QueueCapacityPackets,
			ECNThresholdPackets: cfg.ECNThresholdPackets,
		}},
		Paths:   make([][]int32, cfg.Flows),
		BaseRTT: make([]sim.Time, cfg.Flows),
		Stage:   []int{0},
	}
	for i := range net.Paths {
		net.Paths[i] = []int32{0}
		net.BaseRTT[i] = cfg.BaseRTT
	}
	return NetworkConfig{Config: cfg, Net: net}, nil
}

// netFlow is the per-flow state the network integrator's per-step passes
// touch: unsent demand, the ACK pipe, the cached window, observation-round
// tallies, and per-step scratch (injection offer, final-hop delivery and
// its marked share, current RTT). Per-hop backlogs live in the engine's
// flat arrays, indexed by the flow's hop offset.
type netFlow struct {
	unsent    float64
	ackPipe   float64
	win       float64
	roundDel  float64
	roundMark float64
	inject    float64
	deliv     float64
	delivMark float64
	rttSec    float64
	stallT    sim.Time
	reduced   bool
}

// netEngine integrates the multi-queue fluid state. Its run loop mirrors
// the single-queue engine's (releases, measured-window snapshot, RTO
// wakes, adaptive steps); the step itself walks queues in topological
// stage order so volume forwarded out of one hop is accounted at the next
// within the same step.
type netEngine struct {
	cfg   Config
	net   *netsim.FluidPaths
	flows []flowState
	hot   []netFlow

	// Cohort bookkeeping, exactly as in the single-queue engine (see
	// cohort.go): record i stands for mCnt[i] identical flows (member IDs
	// perm[mOff[i]:mOff[i]+mCnt[i]]); all per-record flow state is PER
	// MEMBER and aggregate couplings at queue boundaries scale by the
	// count. paths[i] is the record's shared ordered queue path (every
	// member of a path class traverses the same queues by construction).
	// lineNext threads split descendants into each original record's
	// lineage chain (-1 terminated).
	perm       []int32
	mOff, mCnt []int32
	lineNext   []int32
	paths      [][]int32
	// releasedFlows counts flow releases by weight (== relPtr when every
	// record is a singleton).
	releasedFlows float64
	cohorts0      int
	splitsMade    int64
	peakW         float64

	// Per-queue state and per-step scratch, indexed by queue.
	q        []float64 // backlog in packets
	drain    []float64 // effective drain, packets/second
	capQ     []float64
	kQ       []float64
	transit  []bool // never a terminal hop: cut-through allowed
	q0       []float64
	served   []float64
	sFrac    []float64
	arrTotal []float64
	markNow  []float64
	passFrac []float64
	// byStage groups queue indices by topological level.
	byStage [][]int32

	// Per-flow-hop flat arrays: off[i]+h indexes flow i's hop h.
	off     []int32
	bk      []float64 // backlog attributed to the flow at the hop
	mk      []float64 // CE-marked share of that backlog
	arrH    []float64 // per-step arrivals into the hop
	arrMkH  []float64 // marked share of those arrivals
	baseSec []float64
	// minBaseSec is the smallest per-record base RTT. Splits copy their
	// parent's baseSec, so it is fixed once the plan's records exist.
	minBaseSec float64

	// Drop-victim index, CSR over queues: vicEnt[vicOff[j]:vicOff[j+1]]
	// lists, in release order, every release whose original record's path
	// crosses queue j, with j's hop position on that path. Split
	// descendants copy their parent's path, so one hop serves the whole
	// lineage a release covers. victimScans counts the lineage records
	// dropTailQueue examines.
	vicOff      []int32
	vicEnt      []victimRef
	victimScans int64

	nicRate  float64 // per-sender injection cap, packets/second
	bneck    int
	segs     float64
	crumbEps float64

	now sim.Time

	releases []release
	relPtr   int

	stalled  []int32
	nextWake sim.Time

	activeList []int32

	cumDelivered float64
	burstsDone   int
	bcts         []sim.Time

	timeouts, fastRetx, retxPkts, drops, marks, sent float64
	baseTimeouts, baseFastRetx, baseRetxPkts         float64
	baseDrops, baseMarks, baseSent, baseDelivered    float64
	baseTaken                                        bool

	timeRounds bool
	steps      uint64
	// recordSteps sums the active records over steps: the unit the
	// solver's per-step cost scales with (BenchmarkNetEngineStep).
	recordSteps uint64

	smp sampler

	// scratch is the pooled backing-array bundle this run borrowed; see
	// netscratch.go.
	scratch *netScratch
}

func newNetEngine(cfg NetworkConfig, plan cohortPlan) *netEngine {
	n := cfg.Flows
	m := plan.cohorts()
	net := cfg.Net
	nq := len(net.Queues)
	e := &netEngine{
		cfg:        cfg.Config,
		net:        net,
		perm:       plan.perm,
		mOff:       plan.off,
		mCnt:       plan.cnt,
		cohorts0:   m,
		nicRate:    EffectivePacketRate(cfg.LineRateBps),
		bneck:      net.Bottleneck,
		segs:       float64(cfg.SegmentsPerFlow),
		crumbEps:   float64(n)*volEps*4 + 1e-9,
		nextWake:   math.MaxInt64,
		timeRounds: cfg.CC.Kind == KindSwift,
	}
	var totalHops int32
	for i := 0; i < m; i++ {
		totalHops += int32(len(net.Paths[plan.perm[plan.off[i]]]))
	}
	e.attach(netScratchPool.Get().(*netScratch), nq, m, totalHops)
	for j, qs := range net.Queues {
		e.drain[j] = EffectivePacketRate(qs.RateBps)
		e.capQ[j] = float64(qs.CapacityPackets)
		e.kQ[j] = float64(qs.ECNThresholdPackets)
		e.transit[j] = true
	}
	e.byStage = make([][]int32, net.Stages())
	for j, s := range net.Stage {
		e.byStage[s] = append(e.byStage[s], int32(j))
	}
	for _, p := range net.Paths {
		e.transit[p[len(p)-1]] = false
	}
	var hops int32
	for i := 0; i < m; i++ {
		// Every member of a record shares the representative's path and
		// base RTT: that's the class key.
		rep := plan.perm[plan.off[i]]
		e.paths[i] = net.Paths[rep]
		e.off[i] = hops
		hops += int32(len(e.paths[i]))
		e.baseSec[i] = float64(net.BaseRTT[rep]) / 1e9
	}
	e.minBaseSec = slices.Min(e.baseSec)
	for i := range e.flows {
		e.flows[i].ctrl = newController(cfg.CC)
		e.flows[i].lastLoss = math.MinInt64 / 2
		e.hot[i].win = e.flows[i].ctrl.window()
		e.lineNext[i] = -1
		if w := float64(e.mCnt[i]); w > e.peakW {
			e.peakW = w
		}
	}
	e.releases = buildReleases(cfg.Config, m)
	e.indexVictims()

	first := 1
	if cfg.Bursts == 1 {
		first = 0
	}
	e.smp = newSampler(cfg.Config, first)
	return e
}

// victimRef is one drop-victim index entry: a release and the hop at
// which its lineage's path crosses the indexed queue.
type victimRef struct {
	rel, hop int32
}

// indexVictims builds the per-queue drop-victim index from the releases,
// reusing the engine's index buffers. Walking releases in order leaves
// every queue's entries sorted by release index.
func (e *netEngine) indexVictims() {
	nq := len(e.q)
	off := grown(e.vicOff, nq+1)
	for _, r := range e.releases {
		for _, j := range e.paths[r.flow] {
			off[j+1]++
		}
	}
	for j := 0; j < nq; j++ {
		off[j+1] += off[j]
	}
	// off[j] is now queue j's start; use it as j's fill cursor, then shift
	// the advanced cursors (each its queue's end) back into starts.
	ent := grown(e.vicEnt, int(off[nq]))
	for ri, r := range e.releases {
		for h, j := range e.paths[r.flow] {
			ent[off[j]] = victimRef{rel: int32(ri), hop: int32(h)}
			off[j]++
		}
	}
	copy(off[1:], off[:nq])
	off[0] = 0
	e.vicOff, e.vicEnt = off, ent
}

func (e *netEngine) activate(i int32) {
	if !e.flows[i].active {
		e.flows[i].active = true
		e.activeList = append(e.activeList, i)
	}
}

// queued returns the aggregate volume across all queues.
func (e *netEngine) queued() float64 {
	var total float64
	for _, v := range e.q {
		total += v
	}
	return total
}

// run advances fluid steps until all demand is delivered or the horizon
// expires, mirroring the single-queue loop.
func (e *netEngine) run() error {
	cfg := e.cfg
	deadline := sim.Time(cfg.Bursts)*cfg.Interval + cfg.Horizon
	measuredStart := e.smp.measuredStart()
	totalDemand := float64(cfg.Flows) * e.segs * float64(cfg.Bursts)

	for e.now < deadline {
		// Each release record covers its unit's whole lineage: the original
		// record plus any split-off descendants.
		for e.relPtr < len(e.releases) && e.releases[e.relPtr].at <= e.now {
			r := e.releases[e.relPtr]
			for ci := r.flow; ci >= 0; ci = e.lineNext[ci] {
				e.hot[ci].unsent += e.segs
				e.flows[ci].lastRelease = r.at
				e.releasedFlows += float64(e.mCnt[ci])
				if e.hot[ci].stallT <= e.now {
					e.activate(ci)
				}
			}
			e.relPtr++
		}
		if !e.baseTaken && e.now >= measuredStart {
			e.baseTaken = true
			e.baseTimeouts, e.baseFastRetx, e.baseRetxPkts = e.timeouts, e.fastRetx, e.retxPkts
			e.baseDrops, e.baseMarks, e.baseSent = e.drops, e.marks, e.sent
			e.baseDelivered = e.cumDelivered
		}
		if e.relPtr == len(e.releases) && e.cumDelivered >= totalDemand-e.crumbEps-1e-6 &&
			e.queued() <= e.crumbEps && len(e.activeList) == 0 && len(e.stalled) == 0 {
			return nil
		}

		if len(e.stalled) > 0 && e.nextWake <= e.now {
			e.wakeDue()
			continue
		}

		next := deadline
		if e.relPtr < len(e.releases) && e.releases[e.relPtr].at < next {
			next = e.releases[e.relPtr].at
		}
		if len(e.stalled) > 0 && e.nextWake < next {
			next = e.nextWake
		}
		if !e.baseTaken && measuredStart > e.now && measuredStart < next {
			next = measuredStart
		}

		if len(e.activeList) == 0 && e.queued() <= e.crumbEps {
			for j := range e.q {
				e.q[j] = 0
			}
			if next <= e.now {
				return fmt.Errorf("flowsim: network run stuck at %v with no runnable flows", e.now)
			}
			e.smp.advance(next, 0)
			e.now = next
			continue
		}

		// Adaptive step sized from the bottleneck queue's RTT, exactly as
		// the single-queue engine sizes from its one queue: transit hops
		// are orders of magnitude faster and contribute delay only under
		// ECMP collisions, which the per-flow RTTs (pass A) still see.
		rttSec := e.minBaseSec + e.q[e.bneck]/e.drain[e.bneck]
		div := float64(stepDiv)
		if e.q[e.bneck] > stepDeepK*e.kQ[e.bneck] {
			div = stepDivDeep
		}
		dt := sim.Time(rttSec / div * 1e9)
		if dt < cfg.MinStep {
			dt = cfg.MinStep
		}
		if dt > cfg.MaxStep {
			dt = cfg.MaxStep
		}
		if e.now+dt > next && next-e.now >= cfg.MinStep {
			dt = next - e.now
		}
		if err := e.step(dt); err != nil {
			return err
		}
	}
	return fmt.Errorf("flowsim: %d-flow network run did not complete by %v (delivered %.0f of %.0f packets)",
		cfg.Flows, deadline, e.cumDelivered, totalDemand)
}

// step advances the fluid state by dt: per-queue service from the
// start-of-step backlogs, per-flow injection offers, then a walk over the
// queues in topological stage order — marking, tail-dropping, admitting,
// and forwarding — and finally the per-flow round bookkeeping.
func (e *netEngine) step(dt sim.Time) error {
	e.steps++
	e.recordSteps += uint64(len(e.activeList))
	stepEnd := e.now + dt
	dtSec := float64(dt) / 1e9

	// Per-queue service from start-of-step state.
	for j := range e.q {
		q0 := e.q[j]
		served := e.drain[j] * dtSec
		if served > q0 {
			served = q0
		}
		e.q0[j] = q0
		e.served[j] = served
		if q0 > 0 && served > 0 {
			e.sFrac[j] = served / q0
		} else {
			e.sFrac[j] = 0
		}
		e.arrTotal[j] = 0
		e.markNow[j] = 0
		e.passFrac[j] = 0
	}

	// Pass A: per-flow RTT, ACK-pipe update, and injection offers into
	// each flow's first hop, mirroring the single-queue engine's pass 1
	// ordering: this step's terminal-hop departure — exactly predictable
	// as bk*sFrac, since drops only hit arrivals and terminal hops never
	// cut through — joins the ACK pipe and frees window headroom before
	// the injection offer is sized. The window paces at w/RTT capped at
	// the host NIC line rate and that headroom.
	maxSend := e.nicRate * dtSec
	for _, i := range e.activeList {
		h := &e.hot[i]
		o := e.off[i]
		path := e.paths[i]
		rtt := e.baseSec[i]
		var inNet float64
		for h2, j := range path {
			rtt += e.q0[j] / e.drain[j]
			inNet += e.bk[o+int32(h2)]
		}
		h.rttSec = rtt
		last := path[len(path)-1]
		dFinal := e.bk[o+int32(len(path)-1)] * e.sFrac[last]
		inNet -= dFinal
		ackDecay := dtSec / (e.baseSec[i] / 2)
		if ackDecay > 1 {
			ackDecay = 1
		}
		p := h.ackPipe + dFinal
		p -= p * ackDecay
		h.ackPipe = p

		var a float64
		if h.unsent > volEps && h.stallT <= e.now {
			w := h.win
			a = w * dtSec / rtt
			if a > maxSend {
				a = maxSend
			}
			if head := w - inNet - p; a > head {
				a = head
			}
			if a > h.unsent {
				a = h.unsent
			}
			if a < 0 {
				a = 0
			}
		}
		h.inject = a
		e.arrH[o] = a
		e.arrMkH[o] = 0
		e.arrTotal[path[0]] += a * float64(e.mCnt[i])
	}

	// Stage walk: queues finalize (mark fraction, tail drops, cut-through
	// share, backlog update) once their arrivals are complete — i.e. after
	// every earlier stage's flows have forwarded — then the flows with a
	// hop at this stage depart, admit, and forward.
	for s, queues := range e.byStage {
		for _, j := range queues {
			arr := e.arrTotal[j]
			// Mark fraction over the step, rackmodel-style, from the
			// pre-drop trajectory — mirroring the single-queue engine.
			e.markNow[j] = markFraction(e.q0[j], e.q0[j]+arr-e.drain[j]*dtSec, e.kQ[j])
			if overflow := e.q0[j] - e.served[j] + arr - e.capQ[j]; overflow > 0 {
				e.dropTailQueue(j, overflow, stepEnd)
				arr = e.arrTotal[j]
			}
			if e.transit[j] && arr > 0 {
				// Cut-through: arrivals that fit the hop's spare service
				// this step forward immediately instead of waiting a step,
				// so idle fabric hops add no pipeline latency.
				if spare := e.drain[j]*dtSec - e.served[j]; spare >= arr {
					e.passFrac[j] = 1
				} else if spare > 0 {
					e.passFrac[j] = spare / arr
				}
			}
			e.q[j] = e.q0[j] - e.served[j] + arr*(1-e.passFrac[j])
			if e.q[j] < 0 {
				e.q[j] = 0
			}
		}
		for _, i := range e.activeList {
			e.stepFlowStage(i, s)
		}
	}

	// Final pass: attribute deliveries and marks, apply cuts, close
	// rounds, park finished flows — the single-queue engine's pass 2 on
	// the network's end-to-end deliveries.
	var servedFinal float64
	keep := e.activeList[:0]
	for _, i := range e.activeList {
		h := &e.hot[i]
		w := float64(e.mCnt[i])
		d, dm := h.deliv, h.delivMark
		h.deliv, h.delivMark = 0, 0
		h.inject = 0
		servedFinal += d * w
		e.cumDelivered += d * w
		e.marks += dm * w
		if d > 0 {
			h.roundDel += d
			if dm > 0 {
				h.roundMark += dm
				if !h.reduced {
					h.reduced = true
					f := &e.flows[i]
					f.ctrl.onMarkCut()
					h.win = f.ctrl.window()
				}
			}
		}
		if h.stallT <= e.now {
			var closes bool
			if e.timeRounds {
				f := &e.flows[i]
				if f.roundEnd == 0 {
					f.roundEnd = stepEnd + sim.Time(h.rttSec*1e9)
				} else if stepEnd >= f.roundEnd {
					closes = true
					f.roundEnd = stepEnd + sim.Time(h.rttSec*1e9)
				}
			} else {
				closes = h.roundDel >= h.win
			}
			if closes {
				if h.roundDel > 0 {
					f := &e.flows[i]
					f.ctrl.onRoundEnd(h.roundDel, h.roundMark, h.rttSec)
					h.win = f.ctrl.window()
					f.backoff = 0
				}
				h.roundDel, h.roundMark = 0, 0
				h.reduced = false
			}
		} else {
			// Parked on an RTO: the sender is silent but its in-network
			// volume keeps draining hop to hop, so the flow stays on the
			// active list purely as a drainer until its residue is gone.
			h.roundDel, h.roundMark = 0, 0
			h.reduced = false
			if e.residual(i) <= finishCrumb {
				e.writeOff(i)
				e.flows[i].active = false
				continue
			}
			keep = append(keep, i)
			continue
		}
		if h.unsent <= volEps && e.residual(i) <= finishCrumb {
			e.writeOff(i)
			e.flows[i].active = false
			continue
		}
		keep = append(keep, i)
	}
	e.activeList = keep

	e.recordCompletions(servedFinal, dt, stepEnd)
	e.smp.advance(stepEnd, e.q[e.bneck])
	e.now = stepEnd

	if e.cfg.Check {
		for j := range e.q {
			if e.q[j] < -1e-6 || e.q[j] > e.capQ[j]+1e-6 {
				return fmt.Errorf("flowsim: queue %s %.6f outside [0, %.0f] at %v",
					e.net.Queues[j].Name, e.q[j], e.capQ[j], e.now)
			}
		}
		if e.steps%4096 == 0 {
			if err := e.checkConservation(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepFlowStage processes record i's hop at stage s (at most one: paths
// are stage-monotonic): depart pro rata with mark attribution, admit this
// step's (post-drop) arrivals plus any cut-through share, and forward the
// departing volume to the next hop or deliver it. Per-member volumes move
// through the record's hop arrays; only the queue-aggregate couplings
// (arrTotal, the sent counter) scale by the member count.
func (e *netEngine) stepFlowStage(i int32, s int) {
	path := e.paths[i]
	o := e.off[i]
	for h, j := range path {
		if e.net.Stage[j] != s {
			continue
		}
		oh := o + int32(h)
		b := e.bk[oh]
		var d, dmTot float64
		if sf := e.sFrac[j]; sf > 0 && b > 0 {
			d = b * sf
			if d > b {
				d = b
			}
			dmOld := d * (e.mk[oh] / b)
			if dmOld > e.mk[oh] {
				dmOld = e.mk[oh]
			}
			e.bk[oh] = b - d
			e.mk[oh] -= dmOld
			dmTot = dmOld + (d-dmOld)*e.markNow[j]
		}
		if a := e.arrH[oh]; a > 0 {
			am := e.arrMkH[oh]
			// Arriving unmarked volume picks up this queue's step mark
			// fraction on its eventual departure; the cut-through share
			// departs now and carries it immediately.
			if pf := e.passFrac[j]; pf > 0 {
				pass := a * pf
				passMk := am * pf
				passMk += (pass - passMk) * e.markNow[j]
				d += pass
				dmTot += passMk
				a -= pass
				am -= am * pf
			}
			e.bk[oh] += a
			e.mk[oh] += am
			if h == 0 {
				// Admit the full post-drop offer (cut-through share
				// included): it leaves the unsent pool and counts as sent.
				admitted := e.arrH[oh]
				u := e.hot[i].unsent - admitted
				if u < 0 {
					u = 0
				}
				e.hot[i].unsent = u
				e.sent += admitted * float64(e.mCnt[i])
			}
		}
		e.arrH[oh] = 0
		e.arrMkH[oh] = 0
		if d > 0 {
			if h+1 < len(path) {
				next := path[h+1]
				no := o + int32(h+1)
				e.arrH[no] += d
				e.arrMkH[no] += dmTot
				e.arrTotal[next] += d * float64(e.mCnt[i])
			} else {
				e.hot[i].deliv += d
				e.hot[i].delivMark += dmTot
			}
		}
		return
	}
}

// dropTailQueue removes overflow volume from this step's arrivals into
// queue j, latest release first — the same victim order, split semantics,
// and loss reactions as the single-queue dropTail. Dropped volume returns
// to the victims' unsent pools (retransmission from the source), wherever
// along the path it was dropped. A cohort whose whole weighted offer is
// consumed reacts in place; the cohort the overflow runs out inside splits
// exactly (netSplitDrop), so each call splits at most one cohort.
//
// Victims come from queue j's release index (indexVictims): the entries
// below relPtr, walked backwards, are exactly the processed releases whose
// lineages cross j, newest first, so releases routed around j cost
// nothing.
func (e *netEngine) dropTailQueue(j int32, overflow float64, stepEnd sim.Time) {
	vic := e.vicEnt[e.vicOff[j]:e.vicOff[j+1]]
	k, _ := slices.BinarySearchFunc(vic, int32(e.relPtr), func(v victimRef, rel int32) int {
		return cmp.Compare(v.rel, rel)
	})
	remaining := overflow
	for k--; k >= 0 && remaining > volEps; k-- {
		rel := e.releases[vic[k].rel]
		h := int(vic[k].hop)
		for i := rel.flow; i >= 0 && remaining > volEps; i = e.lineNext[i] {
			e.victimScans++
			if e.flows[i].lastRelease != rel.at {
				continue
			}
			oh := e.off[i] + int32(h)
			a := e.arrH[oh]
			if a <= 0 {
				continue
			}
			avail := a * float64(e.mCnt[i])
			d := avail
			if d > remaining {
				d = remaining
			}
			if d >= avail {
				// Whole cohort consumed: every member loses its full offer.
				e.netDropHit(i, oh, h, j, a, stepEnd)
				remaining -= d
				continue
			}
			remaining -= e.netSplitDrop(i, oh, h, j, d, stepEnd)
		}
	}
}

// netDropHit removes dPer packets per member from record i's arrivals
// into queue j at hop h (flat index oh), moves the aggregate counters by
// weight, and applies the loss reaction — the network engine's analogue
// of lossReact plus the arrival bookkeeping.
func (e *netEngine) netDropHit(i, oh int32, h int, j int32, dPer float64, stepEnd sim.Time) {
	a := e.arrH[oh]
	frac := dPer / a
	e.arrH[oh] = a - dPer
	dm := e.arrMkH[oh] * frac
	e.arrMkH[oh] -= dm
	total := dPer * float64(e.mCnt[i])
	e.arrTotal[j] -= total
	e.drops += total
	e.retxPkts += total
	if h == 0 {
		// A first-hop drop happens before admission: the volume never
		// left the unsent pool, so it is already queued for
		// retransmission — only the sender's transmit counter moves
		// (mirroring the single-queue dropTail, where dropped volume
		// "stays in the victims' unsent pools").
		e.sent += total
	} else {
		// A deeper-hop drop was admitted (and sent-counted) in an
		// earlier step; return it to the source for retransmission.
		e.hot[i].unsent += dPer
	}

	if e.hot[i].stallT > stepEnd {
		// The victim is already parked on an RTO: drops of its residual
		// in-network volume belong to the same loss event, so the volume
		// returns for retransmission but the timer does not back off
		// again (TCP backs off per timer expiry, not per lost packet).
		return
	}
	f := &e.flows[i]
	w := float64(e.mCnt[i])
	if e.lossInflight(i, e.net.Stage[j]) < e.cfg.DupAckPackets {
		e.timeouts += w
		f.ctrl.onTimeout()
		e.hot[i].win = f.ctrl.window()
		rto := e.cfg.MaxRTO
		if f.backoff < 16 {
			if r := e.cfg.MinRTO << uint(f.backoff); r < rto {
				rto = r
			}
		}
		f.backoff++
		e.hot[i].stallT = stepEnd + rto
		f.roundEnd = 0
		e.hot[i].roundDel, e.hot[i].roundMark = 0, 0
		e.hot[i].reduced = false
		e.stalled = append(e.stalled, i)
		if e.hot[i].stallT < e.nextWake {
			e.nextWake = e.hot[i].stallT
		}
	} else if rttTime := sim.Time(e.hot[i].rttSec * 1e9); stepEnd-f.lastLoss >= rttTime {
		e.fastRetx += w
		f.ctrl.onLoss()
		e.hot[i].win = f.ctrl.window()
		f.lastLoss = stepEnd
	}
}

// netSplitDrop removes d (< the cohort's whole weighted offer) from record
// i's arrivals into queue j by splitting it exactly, mirroring the
// single-queue splitDrop: kFull members lose their entire per-member
// offer, at most one more loses the remainder, the rest are untouched.
func (e *netEngine) netSplitDrop(i, oh int32, h int, j int32, d float64, stepEnd sim.Time) float64 {
	per := e.arrH[oh]
	cnt := e.mCnt[i]
	kFull := int32(d / per)
	if kFull > cnt-1 {
		kFull = cnt - 1
	}
	dPart := d - float64(kFull)*per
	if dPart < 0 {
		dPart = 0
	}
	p := int32(0)
	if dPart > 0 {
		p = 1
	}
	if kFull == 0 && p == 0 {
		return 0
	}
	unaffected := cnt - kFull - p

	if unaffected == 0 && kFull == 0 {
		// Single member, partially hit: react in place, no split.
		e.netDropHit(i, oh, h, j, dPart, stepEnd)
		return dPart
	}

	e.splitsMade++
	off := e.mOff[i]
	if unaffected > 0 {
		// Parent keeps the unaffected head span untouched.
		e.mCnt[i] = unaffected
		if p > 0 {
			part := e.newNetCohort(i, off+unaffected, 1)
			e.netDropHit(part, e.off[part]+int32(h), h, j, dPart, stepEnd)
		}
		if kFull > 0 {
			full := e.newNetCohort(i, off+unaffected+p, kFull)
			fo := e.off[full] + int32(h)
			e.netDropHit(full, fo, h, j, e.arrH[fo], stepEnd)
		}
	} else {
		// Every member is hit (p == 1, kFull == cnt-1): the parent becomes
		// the partial victim and the full victims split off.
		full := e.newNetCohort(i, off+1, kFull)
		fo := e.off[full] + int32(h)
		e.netDropHit(full, fo, h, j, e.arrH[fo], stepEnd)
		e.mCnt[i] = 1
		e.netDropHit(i, oh, h, j, dPart, stepEnd)
	}
	return float64(kFull)*per + dPart
}

// newNetCohort splits the member span [off, off+cnt) out of record parent
// as a new record: per-flow state and the per-hop backlog/mark/arrival
// spans are copied (per-member semantics make the copy exact), the path
// slice header is shared, and the record joins the parent's lineage chain
// and the active list.
func (e *netEngine) newNetCohort(parent, off, cnt int32) int32 {
	ci := int32(len(e.flows))
	e.flows = append(e.flows, e.flows[parent])
	e.hot = append(e.hot, e.hot[parent])
	e.mOff = append(e.mOff, off)
	e.mCnt = append(e.mCnt, cnt)
	e.paths = append(e.paths, e.paths[parent])
	e.baseSec = append(e.baseSec, e.baseSec[parent])
	e.lineNext = append(e.lineNext, e.lineNext[parent])
	e.lineNext[parent] = ci
	po := e.off[parent]
	hops := int32(len(e.paths[parent]))
	e.off = append(e.off, int32(len(e.bk)))
	e.bk = append(e.bk, e.bk[po:po+hops]...)
	e.mk = append(e.mk, e.mk[po:po+hops]...)
	e.arrH = append(e.arrH, e.arrH[po:po+hops]...)
	e.arrMkH = append(e.arrMkH, e.arrMkH[po:po+hops]...)
	e.flows[ci].active = true
	e.activeList = append(e.activeList, ci)
	return ci
}

// lossInflight estimates the drop victim's in-network volume after this
// step's departures — hops at stages not yet integrated still hold their
// start-of-step backlog, so their pending pro-rata departure is deducted
// — plus its not-yet-admitted arrivals. This mirrors the single-queue
// dropTail's backlog+arr duplicate-ACK test, where backlog is already
// post-delivery when drops are assessed.
func (e *netEngine) lossInflight(i int32, s int) float64 {
	o := e.off[i]
	var total float64
	for h, j := range e.paths[i] {
		b := e.bk[o+int32(h)]
		if e.net.Stage[j] >= s {
			b *= 1 - e.sFrac[j]
		}
		total += b + e.arrH[o+int32(h)]
	}
	return total
}

// residual is the record's per-member in-network backlog.
func (e *netEngine) residual(i int32) float64 {
	o := e.off[i]
	var total float64
	for h := range e.paths[i] {
		total += e.bk[o+int32(h)]
	}
	return total
}

// writeOff retires a finished (or stalled-and-drained) flow's sub-packet
// residue: the crumbs leave their queues and count as delivered, sparing
// tens of steps of multiplicative decay — the network analogue of the
// single-queue engine's orphan bucket, bounded by Flows x finishCrumb
// packets per burst.
func (e *netEngine) writeOff(i int32) {
	o := e.off[i]
	w := float64(e.mCnt[i])
	for h, j := range e.paths[i] {
		oh := o + int32(h)
		if b := e.bk[oh]; b > 0 {
			e.q[j] -= b * w
			if e.q[j] < 0 {
				e.q[j] = 0
			}
			e.cumDelivered += b * w
			e.bk[oh] = 0
			e.mk[oh] = 0
		}
	}
	e.hot[i].ackPipe = 0
	e.hot[i].roundDel, e.hot[i].roundMark = 0, 0
	e.hot[i].reduced = false
}

// wakeDue reactivates stalled flows whose RTO expired.
func (e *netEngine) wakeDue() {
	keep := e.stalled[:0]
	e.nextWake = math.MaxInt64
	for _, i := range e.stalled {
		if e.hot[i].stallT <= e.now {
			e.hot[i].stallT = 0
			if e.hot[i].unsent > volEps || e.residual(i) > volEps {
				e.activate(i)
			}
		} else {
			keep = append(keep, i)
			if e.hot[i].stallT < e.nextWake {
				e.nextWake = e.hot[i].stallT
			}
		}
	}
	e.stalled = keep
}

// recordCompletions mirrors the single-queue detector on the network's
// end-to-end deliveries.
func (e *netEngine) recordCompletions(served float64, dt, stepEnd sim.Time) {
	for e.burstsDone < e.cfg.Bursts {
		target := float64(e.burstsDone+1) * float64(e.cfg.Flows) * e.segs
		if e.cumDelivered < target-e.crumbEps {
			break
		}
		if e.releasedFlows < float64((e.burstsDone+1)*e.cfg.Flows) {
			break
		}
		t := stepEnd
		if served > 0 {
			over := e.cumDelivered - target
			if over < 0 {
				over = 0
			}
			if over > served {
				over = served
			}
			t = stepEnd - sim.Time(over/served*float64(dt))
		}
		start := sim.Time(e.burstsDone) * e.cfg.Interval
		e.bcts = append(e.bcts, t+e.cfg.BaseRTT/2-start)
		e.burstsDone++
	}
}

// checkConservation verifies released volume against delivered + unsent +
// queued, and each queue's aggregate against the per-flow backlogs.
func (e *netEngine) checkConservation() error {
	var unsent, backlog float64
	perQueue := make([]float64, len(e.q))
	for i := range e.flows {
		w := float64(e.mCnt[i])
		unsent += e.hot[i].unsent * w
		o := e.off[i]
		for h, j := range e.paths[i] {
			b := e.bk[o+int32(h)] * w
			backlog += b
			perQueue[j] += b
		}
	}
	released := e.releasedFlows * e.segs
	tol := 1e-6*released + float64(e.cfg.Flows)*(volEps*10+finishCrumb) + 1e-3
	if diff := math.Abs(released - (e.cumDelivered + unsent + backlog)); diff > tol {
		return fmt.Errorf("flowsim: network volume conservation violated at %v: released %.3f != delivered %.3f + unsent %.3f + queued %.3f (diff %.6f)",
			e.now, released, e.cumDelivered, unsent, backlog, diff)
	}
	for j := range e.q {
		if diff := math.Abs(perQueue[j] - e.q[j]); diff > 1e-3+1e-6*e.capQ[j] {
			return fmt.Errorf("flowsim: queue %s accounting violated at %v: aggregate %.6f vs per-flow sum %.6f",
				e.net.Queues[j].Name, e.now, e.q[j], perQueue[j])
		}
	}
	return nil
}

// finish assembles the Result, identically shaped to the single-queue
// engine's.
func (e *netEngine) finish() (*Result, error) {
	cfg := e.cfg
	if err := e.checkConservation(); err != nil {
		return nil, err
	}
	if len(e.bcts) < cfg.Bursts {
		return nil, fmt.Errorf("flowsim: network run completed only %d of %d bursts", len(e.bcts), cfg.Bursts)
	}
	r := &Result{
		Flows:         cfg.Flows,
		AlgName:       cfg.CC.Name,
		QueueCapacity: cfg.QueueCapacityPackets,
		ECNThreshold:  cfg.ECNThresholdPackets,
		Steps:         e.steps,
		SimNow:        e.now,
	}

	avg := stats.NewSeries(0, int64(cfg.SampleInterval), e.smp.perBurst)
	copy(avg.Values, e.smp.avg)
	avg.Scale(1 / float64(e.smp.measured))
	r.AvgQueue = avg
	r.MaxQueue = e.smp.maxQ
	if e.smp.busy > 0 {
		r.FracBelowK = float64(e.smp.belowK) / float64(e.smp.busy)
	}
	spikeSamples := int(2 * sim.Millisecond / cfg.SampleInterval)
	for i := 0; i < spikeSamples && i < len(avg.Values); i++ {
		if avg.Values[i] > r.SpikePackets {
			r.SpikePackets = avg.Values[i]
		}
	}

	var bctSum sim.Time
	measured := e.bcts[e.smp.first:]
	r.BCTs = append(r.BCTs, measured...)
	for _, b := range measured {
		bctSum += b
		if b > r.MaxBCT {
			r.MaxBCT = b
		}
	}
	r.MeanBCT = bctSum / sim.Time(len(measured))

	round := func(v float64) int64 { return int64(math.Round(v)) }
	r.Timeouts = round(e.timeouts - e.baseTimeouts)
	r.FastRetransmits = round(e.fastRetx - e.baseFastRetx)
	r.RetransmitPackets = round(e.retxPkts - e.baseRetxPkts)
	r.Drops = round(e.drops - e.baseDrops)
	r.Marks = round(e.marks - e.baseMarks)
	r.SentPackets = round(e.sent - e.baseSent)
	r.DeliveredPackets = round(e.cumDelivered - e.baseDelivered)
	// Per-flow end-state, written at member flow IDs exactly as the
	// single-queue engine does.
	r.FinalCwndPkts = make([]float64, cfg.Flows)
	alphas := e.flows[0].ctrl.kind == KindDCTCP
	if alphas {
		r.FinalAlphas = make([]float64, cfg.Flows)
	}
	for i := range e.flows {
		cnt := int64(e.mCnt[i])
		r.CwndUpdates += e.flows[i].ctrl.updates * cnt
		win := e.flows[i].ctrl.window()
		for _, m := range e.perm[e.mOff[i] : e.mOff[i]+e.mCnt[i]] {
			r.FinalCwndPkts[m] = win
			if alphas {
				r.FinalAlphas[m] = e.flows[i].ctrl.alpha
			}
		}
	}
	r.Cohorts = len(e.mCnt)
	r.CohortSplits = e.splitsMade
	r.PeakCohortWeight = e.peakW
	r.VictimScans = e.victimScans
	return r, nil
}
