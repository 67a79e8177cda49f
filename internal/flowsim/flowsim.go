// Package flowsim is the flow-level fast path: a fluid approximation of
// the incast dumbbell that advances in adaptive per-interval steps instead
// of per-packet events. Flows carry residual demand in packets and send at
// a cwnd-derived rate w/RTT; the bottleneck queue, ECN marking, and tail
// drops evolve analytically per step; reduced-form DCTCP/Reno/Swift laws
// (plus the Guardrail cap and D2TCP's deadline exponent) update once per
// RTT round; and RTO timeouts are modeled as flow stalls with exponential
// backoff so Mode-3 (timeout-dominated) incasts are representable.
//
// Rate contract: like internal/audit/diff.go, the queue drains at the
// effective IP-byte rate LineRateBps x MTU/(MTU+EthernetOverhead)
// (= x1500/1538) because the wire serializes 38 B of Ethernet framing per
// MTU packet that queue accounting never sees. One flowsim "packet" is one
// MSS of payload occupying one MTU-sized queue slot, exactly as in
// internal/netsim.
//
// The engine trades packet-level microstructure for speed: it reproduces
// the paper's mode classification, standing-queue levels, and BCT scale at
// a small fraction of the event simulator's cost (see BENCH_PR6.json), and
// internal/audit's three-way differential harness pins the agreement.
package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
)

// Config describes one fluid incast run. The shape mirrors the packet
// simulator's core.SimConfig so the core layer can lower one into the
// other; zero values take the paper defaults.
type Config struct {
	// Flows is the incast degree N.
	Flows int
	// SegmentsPerFlow is the per-flow, per-burst demand in MSS segments
	// (= queue packets). Use workload.BytesPerFlowFor(...)/netsim.MSS to
	// match the packet simulator's demand sizing.
	SegmentsPerFlow int64
	// Bursts is the total burst count; the first is discarded from
	// measurements as a slow-start transient (unless it is the only one).
	Bursts int
	// Interval is the burst start-to-start spacing (default 250 ms).
	Interval sim.Time
	// JitterMax jitters each flow's start within a burst uniformly in
	// [0, JitterMax] (default 100 us).
	JitterMax sim.Time
	// Seed drives the jitter RNG (default 1).
	Seed uint64

	// LineRateBps is the bottleneck (and host NIC) line rate (default
	// 10 Gbps); CoreRateBps caps aggregate arrivals (default 100 Gbps).
	LineRateBps int64
	CoreRateBps int64
	// QueueCapacityPackets and ECNThresholdPackets describe the bottleneck
	// port (defaults 1333 and 65, the paper's 2 MB queue and K).
	QueueCapacityPackets int
	ECNThresholdPackets  int
	// BaseRTT is the uncongested round-trip time (default the paper
	// dumbbell's ~30 us).
	BaseRTT sim.Time
	// MinRTO and MaxRTO bound the stall length after a timeout-class loss;
	// consecutive timeouts back off exponentially between them (defaults
	// 200 ms and 2 s, the transport defaults).
	MinRTO, MaxRTO sim.Time
	// DupAckPackets is the in-flight volume below which a loss cannot
	// gather enough duplicate ACKs for fast retransmit and becomes a
	// stall instead (default 3, the dup-ACK threshold).
	DupAckPackets float64

	// CC parameterizes the per-flow reduced-form controller.
	CC CCConfig

	// Aggregation selects how flows are integrated: "perflow" (one record
	// per flow, the exact engine), "cohort" (equivalence classes of
	// identical flows integrate as weighted records; see cohort.go), or
	// "auto"/"" (cohorts from AutoCohortMinFlows up).
	Aggregation string

	// cohortBuckets overrides the per-class jitter bucket count (tests
	// only; 0 means defaultCohortBuckets).
	cohortBuckets int

	// SampleInterval and SampleWindow control queue sampling per burst
	// (defaults 100 us and demand drain time + 5 ms, capped at Interval),
	// mirroring the packet simulator's series.
	SampleInterval sim.Time
	SampleWindow   sim.Time

	// MinStep and MaxStep bound the adaptive fluid step, which tracks
	// RTT/stepDiv (defaults 2 us and 2 ms).
	MinStep, MaxStep sim.Time
	// Horizon is the recovery headroom past the nominal end before the run
	// is declared stuck (default 60 s: synchronized RTO retry waves at
	// high N legitimately take seconds).
	Horizon sim.Time

	// Check enables per-step invariant checking (queue bounds, per-flow
	// volume conservation); violations surface as errors. The closing
	// conservation check always runs.
	Check bool
}

func (c *Config) fill() error {
	if c.Flows <= 0 {
		return fmt.Errorf("flowsim: config needs at least one flow")
	}
	if c.SegmentsPerFlow <= 0 {
		return fmt.Errorf("flowsim: config needs positive per-flow demand")
	}
	if c.Bursts <= 0 {
		c.Bursts = 11
	}
	if c.Interval <= 0 {
		c.Interval = 250 * sim.Millisecond
	}
	if c.JitterMax < 0 {
		return fmt.Errorf("flowsim: jitter must be non-negative")
	}
	if c.JitterMax == 0 {
		c.JitterMax = 100 * sim.Microsecond
	}
	if c.JitterMax >= c.Interval {
		return fmt.Errorf("flowsim: jitter %v must stay below the burst interval %v", c.JitterMax, c.Interval)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LineRateBps <= 0 {
		c.LineRateBps = 10 * netsim.Gbps
	}
	if c.CoreRateBps <= 0 {
		c.CoreRateBps = 100 * netsim.Gbps
	}
	if c.QueueCapacityPackets <= 0 {
		c.QueueCapacityPackets = netsim.DefaultDumbbellConfig(1).QueueCapacityPackets
	}
	if c.ECNThresholdPackets <= 0 {
		c.ECNThresholdPackets = netsim.DefaultDumbbellConfig(1).ECNThresholdPackets
	}
	if c.BaseRTT <= 0 {
		c.BaseRTT = netsim.DefaultDumbbellConfig(1).BaseRTT()
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * sim.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 2 * sim.Second
	}
	if c.MaxRTO < c.MinRTO {
		c.MaxRTO = c.MinRTO
	}
	if c.DupAckPackets <= 0 {
		c.DupAckPackets = 3
	}
	if !KnownAggregation(c.Aggregation) {
		return fmt.Errorf("flowsim: unknown aggregation %q (valid: %q, %q, %q)",
			c.Aggregation, AggregationAuto, AggregationCohort, AggregationPerFlow)
	}
	c.CC.fill(c.BaseRTT)
	if c.SampleInterval <= 0 {
		c.SampleInterval = 100 * sim.Microsecond
	}
	if c.SampleWindow <= 0 {
		drainSec := float64(c.SegmentsPerFlow) * float64(c.Flows) / EffectivePacketRate(c.LineRateBps)
		c.SampleWindow = sim.Time(drainSec*1e9) + 5*sim.Millisecond
	}
	// A single monotonically advancing sample cursor requires windows not
	// to overlap the next burst's.
	if c.SampleWindow > c.Interval {
		c.SampleWindow = c.Interval
	}
	if c.MinStep <= 0 {
		c.MinStep = 2 * sim.Microsecond
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 2 * sim.Millisecond
	}
	if c.MaxStep < c.MinStep {
		c.MaxStep = c.MinStep
	}
	if c.Horizon <= 0 {
		c.Horizon = 60 * sim.Second
	}
	return nil
}

// Result aggregates a fluid run over its measured bursts, mirroring the
// packet simulator's core.SimResult fields so the core layer renders both
// through one path.
type Result struct {
	Flows   int
	AlgName string

	// AvgQueue is the queue depth in packets averaged element-wise across
	// measured bursts; time is relative to burst start.
	AvgQueue *stats.Series
	// MaxQueue is the highest sampled depth across measured bursts.
	MaxQueue float64
	// FracBelowK is the fraction of busy (non-empty) samples below the ECN
	// threshold, per burst before averaging (the Mode-1 signature).
	FracBelowK float64
	// SpikePackets is the peak of AvgQueue within the first 2 ms.
	SpikePackets float64

	// MeanBCT and MaxBCT summarize measured burst completion times; BCTs
	// carries every measured burst for quantile work.
	MeanBCT, MaxBCT sim.Time
	BCTs            []sim.Time

	// Counters over the measured window (after the discarded first burst).
	Timeouts, FastRetransmits, RetransmitPackets, Drops, Marks int64
	SentPackets                                                int64
	// DeliveredPackets is the measured-window goodput in packets.
	DeliveredPackets int64

	// CwndUpdates counts controller updates across all flows (whole run),
	// feeding the same obs metric as the packet algorithms.
	CwndUpdates int64
	// FinalCwndPkts holds each flow's effective window at the end of the
	// run; FinalAlphas holds the DCTCP-family congestion estimates (empty
	// for other laws). Both feed the obs end-state histograms.
	FinalCwndPkts []float64
	FinalAlphas   []float64

	// Steps is the number of fluid steps executed and SimNow the virtual
	// time reached — the flow-level analogue of events/SimNow.
	Steps  uint64
	SimNow sim.Time

	// Cohorts is the number of weighted flow records the run ended with
	// (== Flows for per-flow integration), CohortSplits the number of
	// records created mid-run by partial tail drops, and PeakCohortWeight
	// the largest member count any record carried — together they report
	// how much symmetry the run exploited.
	Cohorts          int
	CohortSplits     int64
	PeakCohortWeight float64
	// VictimScans counts the records the tail-drop victim search examined
	// over the whole run: the cost of finding whom to drop, as opposed to
	// integrating them.
	VictimScans int64

	// QueueCapacity and ECNThreshold echo the configuration.
	QueueCapacity, ECNThreshold int
}

// ModeFracBelowK is the busy-sample fraction below K separating healthy
// (Mode 1) from degenerate (Mode 2) runs, shared with internal/core so
// both fidelities label the paper's operating modes identically.
const ModeFracBelowK = 0.10

// Classify maps run outcomes onto the paper's three operating modes:
// timeouts mean Mode 3; a queue that never meaningfully falls below the
// marking threshold means Mode 2; otherwise the run is healthy.
func Classify(timeouts int64, fracBelowK float64) string {
	switch {
	case timeouts > 0:
		return "3 (timeouts)"
	case fracBelowK < ModeFracBelowK:
		return "2 (degenerate)"
	default:
		return "1 (healthy)"
	}
}

// EffectivePacketRate returns the IP-packet drain rate of a link in
// packets/second under the x1500/1538 wire-overhead contract.
func EffectivePacketRate(bps int64) float64 {
	return float64(bps) / 8 / float64(netsim.MTU+netsim.EthernetOverhead)
}

// flowState is the per-flow cold state: everything the per-step hot loops
// do not touch on every iteration. The hot per-flow quantities (unsent,
// backlog, ackPipe, cached window, stall deadline) live in parallel arrays
// on the engine so each fluid step streams a few dense float64 slices
// instead of striding through a large struct per flow.
type flowState struct {
	ctrl controller

	// lastRelease orders tail-drop victims: the latest-released arrivals
	// are the ones at the back of the queue when it overflows.
	lastRelease sim.Time

	// backoff doubles the RTO up to MaxRTO across consecutive stalls.
	backoff int

	// roundEnd ends a time-based (Swift) observation round one RTT after
	// it began; lastLoss rate-limits fast-retransmit reactions to one per
	// RTT. The volume-based round tallies live in the engine's hot array.
	roundEnd sim.Time
	lastLoss sim.Time

	active bool
}

// hotFlow is the per-flow state the per-step passes touch, packed so one
// flow costs one bounds check and a cache line or two: unsent is
// released-but-not-yet-admitted demand in packets (retransmissions return
// here); backlog is the flow's share of the bottleneck queue; ackPipe is
// delivered-but-not-yet-acked volume still occupying the window; win
// caches ctrl.window(), refreshed after every controller update; roundDel
// and roundMark tally delivered and marked volume this observation round,
// with reduced latching the once-per-round mark cut; arr and deliv are
// pass-1 scratch (this step's admitted offer and delivery); stallT is the
// RTO wake deadline (zero when not stalled).
type hotFlow struct {
	unsent    float64
	backlog   float64
	ackPipe   float64
	win       float64
	roundDel  float64
	roundMark float64
	arr       float64
	deliv     float64
	stallT    sim.Time
	reduced   bool
}

type release struct {
	at   sim.Time
	flow int32
}

// lzEvent is a pending lazy-set threshold crossing: flow i needs touching
// once the drain coordinate decays to g. stamp invalidates entries whose
// flow has been touched since they were pushed.
type lzEvent struct {
	g     float64
	flow  int32
	stamp uint32
}

const volEps = 1e-9

// stepDiv divides the current RTT to get the adaptive step: the
// controllers react at round (RTT) cadence, so a handful of steps per
// round resolves the control loop; finer steps only sharpen sub-round
// queue microstructure the mode statistics do not depend on. Near the ECN
// threshold the below-K busy fraction (the Mode-1/Mode-2 discriminant)
// does depend on the oscillation around K, so steps stay at RTT/stepDiv
// there; once the queue is pegged deep above K (beyond stepDeepK times
// the threshold) marking is saturated and a full-RTT step (stepDivDeep)
// loses nothing the taxonomy can see.
const (
	stepDiv     = 1.5
	stepDivDeep = 1.0
	stepDeepK   = 4.0
)

// finishCrumb is the residual backlog (packets) below which a flow with no
// remaining demand is considered done and its crumb handed to the orphan
// bucket. A whole burst leaves at most Flows x finishCrumb packets — under
// two wire bytes per flow — to the aggregate, while sparing tens of
// per-flow steps of multiplicative decay from ~1 packet down to volEps.
const finishCrumb = 1e-3

// Run executes the fluid simulation. It returns an error when the
// configuration is invalid, the run fails to complete within the horizon,
// or (with cfg.Check) an invariant is violated.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// The dumbbell has a single path and uniform CC/demand/RTT, so every
	// flow is in one equivalence class; only jitter buckets partition it.
	e := newEngine(cfg, buildPlan(&cfg, nil, 1))
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish()
}

type engine struct {
	cfg   Config
	flows []flowState

	// Cohort bookkeeping: record i represents mCnt[i] identical flows (the
	// member IDs perm[mOff[i]:mOff[i]+mCnt[i]]). All per-record state in
	// flows/hot is PER MEMBER; aggregate couplings scale by the count.
	// lineNext threads each original record's split descendants into a
	// lineage chain (-1 terminated) so release entries — built once, per
	// original record — reach every descendant. Per-flow runs are the
	// degenerate instance: every count 1, every chain a single node.
	perm       []int32
	mOff, mCnt []int32
	lineNext   []int32
	// releasedFlows counts flow releases by weight (== relPtr when every
	// record is a singleton); completion targets compare against it.
	releasedFlows float64
	cohorts0      int
	splitsMade    int64
	peakW         float64
	victimScans   int64

	// Static rates (packets/second) and conversions.
	drain    float64 // bottleneck effective drain
	coreRate float64 // aggregate arrival cap
	baseSec  float64
	capPkts  float64
	kPkts    float64
	segs     float64
	crumbEps float64 // residual volume tolerance from per-flow epsilons

	now sim.Time
	q   float64

	// orphan is queue volume no longer attributed to a live flow: the
	// residual backlog of flows parked on an RTO (their in-flight packets
	// keep draining while the sender is silent) and sub-packet crumbs of
	// finished flows. Folding it into one bucket lets those flows leave
	// the active list immediately instead of being iterated every step
	// while their share decays toward zero. Always q >= orphan.
	orphan float64

	// Releases: every burst's per-flow start, globally time-sorted.
	releases []release
	relPtr   int

	// stalled holds flow indices parked on an RTO; nextWake caches the
	// earliest wake time.
	stalled  []int32
	nextWake sim.Time

	// activeList holds flow indices with sendable or queued volume.
	activeList []int32

	// hot packs everything the per-step passes touch into one record per
	// flow (see hotFlow), so an iteration costs one bounds check and one
	// or two cache lines instead of a strided load per parallel array.
	hot []hotFlow

	// timeRounds is true when the law closes rounds on elapsed RTT (Swift)
	// instead of delivered volume; uniform across flows, hoisted out of
	// the hot loop.
	timeRounds bool

	// Lazy drain set for spent flows (demand sent, backlog draining).
	// Pro-rata service means every backlog not touched by an arrival
	// evolves identically: one step with service fraction s scales all of
	// them by (1-s). lzG accumulates that product (the epoch's drain
	// coordinate), so a flow parked at coordinate gRef holds
	// backlog[i] * lzG/gRef right now and has delivered
	// backlog[i] * (gRef-lzG)/gRef since parking — without being iterated.
	// lzM is the matching mark integral (sum of per-step coordinate drops
	// weighted by the step's mark fraction), giving exact mark attribution
	// on the same terms. A parked flow's only live deadline — the finish
	// crumb — is a threshold crossing of lzG, kept in a max-heap and fired
	// as the coordinate decays past it; the controller rounds that elapse
	// meanwhile are batch-replayed on touch (see touchLazy). Per-step cost
	// is O(crossings), not O(parked flows). Stamps invalidate stale heap
	// entries. Volume-round laws only (Swift's time-based rounds stay
	// eager).
	lzG, lzM   float64
	gRef, mRef []float64
	lazy       []bool
	lzStamp    []uint32
	lzCount    int
	lzHeap     []lzEvent

	// Completion tracking: cumDelivered crosses burst targets in order.
	cumDelivered float64
	burstsDone   int
	bcts         []sim.Time

	// Counters (floats during the run, rounded at the end). The base
	// values snapshot at the start of the measured window, mirroring the
	// packet runner's approach.
	timeouts, fastRetx, retxPkts, drops, marks, sent float64
	baseTimeouts, baseFastRetx, baseRetxPkts         float64
	baseDrops, baseMarks, baseSent, baseDelivered    float64
	baseTaken                                        bool

	steps uint64

	smp sampler
}

func newEngine(cfg Config, plan cohortPlan) *engine {
	n := cfg.Flows
	m := plan.cohorts()
	e := &engine{
		cfg:        cfg,
		flows:      make([]flowState, m),
		perm:       plan.perm,
		mOff:       plan.off,
		mCnt:       plan.cnt,
		lineNext:   make([]int32, m),
		cohorts0:   m,
		drain:      EffectivePacketRate(cfg.LineRateBps),
		coreRate:   EffectivePacketRate(cfg.CoreRateBps),
		baseSec:    float64(cfg.BaseRTT) / 1e9,
		capPkts:    float64(cfg.QueueCapacityPackets),
		kPkts:      float64(cfg.ECNThresholdPackets),
		segs:       float64(cfg.SegmentsPerFlow),
		crumbEps:   float64(n)*volEps*4 + 1e-9,
		nextWake:   math.MaxInt64,
		hot:        make([]hotFlow, m),
		timeRounds: cfg.CC.Kind == KindSwift,

		lzG:     1,
		gRef:    make([]float64, m),
		mRef:    make([]float64, m),
		lazy:    make([]bool, m),
		lzStamp: make([]uint32, m),
	}
	for i := range e.flows {
		e.flows[i].ctrl = newController(cfg.CC)
		e.flows[i].lastLoss = math.MinInt64 / 2
		e.hot[i].win = e.flows[i].ctrl.window()
		e.lineNext[i] = -1
		if w := float64(e.mCnt[i]); w > e.peakW {
			e.peakW = w
		}
	}
	e.releases = buildReleases(cfg, m)

	first := 1
	if cfg.Bursts == 1 {
		first = 0
	}
	e.smp = newSampler(cfg, first)
	return e
}

// buildReleases expands the burst schedule into every unit's per-burst
// start, globally time-sorted — a unit is one release record: a flow in
// per-flow runs, a cohort (one jitter draw standing for all its members)
// in aggregated runs, so per-flow runs draw the identical jitter sequence
// the pre-cohort engine did. Each burst is sorted by (at, unit) ascending
// so dropTail's newest-first walk over this slice visits equal-time
// releases in descending unit order, matching the documented tail-drop
// victim order. Sorting packed at<<unitBits|unit keys through slices.Sort
// beats a comparator-closure sort ~3x; release times stay far below the
// 2^(63-unitBits) ns (~2.4 h of simulated time) packing headroom. Shared
// between the single-queue and network engines so both draw the identical
// jitter sequence from one seed.
func buildReleases(cfg Config, nUnits int) []release {
	const unitBits = 20
	if nUnits >= 1<<unitBits {
		panic(fmt.Sprintf("flowsim: %d release units exceeds the release-key packing limit %d (aggregate into cohorts to go bigger)", nUnits, 1<<unitBits))
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	releases := make([]release, 0, nUnits*cfg.Bursts)
	keys := make([]uint64, nUnits)
	for b := 0; b < cfg.Bursts; b++ {
		start := sim.Time(b) * cfg.Interval
		for i := 0; i < nUnits; i++ {
			j := sim.Time(rng.Int63n(int64(cfg.JitterMax) + 1))
			keys[i] = uint64(start+j)<<unitBits | uint64(i)
		}
		slices.Sort(keys)
		for _, k := range keys {
			releases = append(releases, release{at: sim.Time(k >> unitBits), flow: int32(k & (1<<unitBits - 1))})
		}
	}
	return releases
}

func (e *engine) activate(i int32) {
	if !e.flows[i].active {
		e.flows[i].active = true
		e.activeList = append(e.activeList, i)
	}
}

// run advances fluid steps until all demand is delivered or the horizon
// expires.
func (e *engine) run() error {
	cfg := e.cfg
	deadline := sim.Time(cfg.Bursts)*cfg.Interval + cfg.Horizon
	measuredStart := e.smp.measuredStart()
	totalDemand := float64(cfg.Flows) * e.segs * float64(cfg.Bursts)

	for e.now < deadline {
		// Release pending flow starts. Each record covers its unit's whole
		// lineage: the original record plus any split-off descendants.
		for e.relPtr < len(e.releases) && e.releases[e.relPtr].at <= e.now {
			r := e.releases[e.relPtr]
			for ci := r.flow; ci >= 0; ci = e.lineNext[ci] {
				e.hot[ci].unsent += e.segs
				e.flows[ci].lastRelease = r.at
				e.releasedFlows += float64(e.mCnt[ci])
				if e.lazy[ci] {
					// New demand turns a parked drainer back into a sender:
					// materialize and re-dispose (eager or blocked-lazy).
					e.touchLazy(ci, e.baseSec+e.q/e.drain)
				} else if e.hot[ci].stallT <= e.now {
					e.activate(ci)
				}
			}
			e.relPtr++
		}
		// Snapshot counters when the measured window opens.
		if !e.baseTaken && e.now >= measuredStart {
			e.baseTaken = true
			e.baseTimeouts, e.baseFastRetx, e.baseRetxPkts = e.timeouts, e.fastRetx, e.retxPkts
			e.baseDrops, e.baseMarks, e.baseSent = e.drops, e.marks, e.sent
			e.baseDelivered = e.cumDelivered
		}
		if e.relPtr == len(e.releases) && e.cumDelivered >= totalDemand-e.crumbEps-1e-6 &&
			e.q <= e.crumbEps && len(e.activeList) == 0 && len(e.stalled) == 0 && e.lzCount == 0 {
			return nil
		}

		// Wake stalled flows that are due.
		if len(e.stalled) > 0 && e.nextWake <= e.now {
			e.wakeDue()
			continue
		}

		// Next hard boundary: burst release, RTO wake, or the opening of
		// the measured window.
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

		if len(e.activeList) == 0 && e.lzCount == 0 && e.q <= e.crumbEps {
			// Fully idle: fold residual crumbs and jump to the next event.
			e.q = 0
			e.orphan = 0
			if next <= e.now {
				return fmt.Errorf("flowsim: stuck at %v with no runnable flows", e.now)
			}
			e.smp.advance(next, 0)
			e.now = next
			continue
		}

		// Adaptive step: a fraction of the current RTT, clamped, snapped
		// to the next boundary; full-RTT steps once the queue is pegged
		// deep above the ECN threshold (see stepDiv).
		rttSec := e.baseSec + e.q/e.drain
		div := float64(stepDiv)
		if e.q > stepDeepK*e.kPkts {
			div = stepDivDeep
		}
		dt := sim.Time(rttSec / div * 1e9)
		if dt < cfg.MinStep {
			dt = cfg.MinStep
		}
		if dt > cfg.MaxStep {
			dt = cfg.MaxStep
		}
		// Snap to the boundary, but never below MinStep: boundaries are
		// honored at MinStep resolution. Chasing each of a burst's jittered
		// release instants exactly would mean one sub-microsecond step per
		// flow; landing up to MinStep late batches releases instead, and the
		// release loop processes everything due regardless.
		if e.now+dt > next && next-e.now >= cfg.MinStep {
			dt = next - e.now
		}
		if err := e.step(dt, rttSec); err != nil {
			return err
		}
	}
	return fmt.Errorf("flowsim: %d-flow run did not complete by %v (delivered %.0f of %.0f packets)",
		cfg.Flows, deadline, e.cumDelivered, totalDemand)
}

// step advances the fluid state by dt.
func (e *engine) step(dt sim.Time, rttSec float64) error {
	e.steps++
	stepEnd := e.now + dt
	dtSec := float64(dt) / 1e9
	rttTime := sim.Time(rttSec * 1e9)

	// Serve the existing queue content first: deliveries free window
	// headroom for this step's arrivals, and arrivals admitted now are
	// served from the next step on (one-step latency << RTT/3).
	q0 := e.q
	served := e.drain * dtSec
	if served > q0 {
		served = q0
	}
	// The orphan bucket drains pro rata like any other backlog.
	if served > 0 && e.orphan > 0 {
		o := served * e.orphan / q0
		if o > e.orphan {
			o = e.orphan
		}
		e.orphan -= o
	}
	ackDecay := dtSec / (e.baseSec / 2)
	if ackDecay > 1 {
		ackDecay = 1
	}
	// Hoist the per-flow divides: pro-rata service is a common factor, and
	// the per-window pacing rate is w/RTT capped at the line rate, i.e.
	// min(w*paceDt, drain*dtSec) packets this step.
	var sFrac float64
	if served > 0 && q0 > 0 {
		sFrac = served / q0
	}
	paceDt := dtSec / rttSec
	maxSend := e.drain * dtSec

	// Pass 1: deliveries, window bookkeeping, arrival offers.
	var totalArr float64
	for _, i := range e.activeList {
		h := &e.hot[i]
		b := h.backlog
		p := h.ackPipe
		var d float64
		if sFrac > 0 && b > 0 {
			d = b * sFrac
			if d > b {
				d = b
			}
			b -= d
			h.backlog = b
			p += d
		}
		h.deliv = d
		p -= p * ackDecay
		h.ackPipe = p

		var a float64
		if h.unsent > volEps && h.stallT <= e.now {
			w := h.win
			a = w * paceDt
			if a > maxSend {
				a = maxSend // host NIC line rate
			}
			if head := w - b - p; a > head {
				a = head
			}
			if a > h.unsent {
				a = h.unsent
			}
			if a < 0 {
				a = 0
			}
		}
		h.arr = a
		totalArr += a * float64(e.mCnt[i])
	}

	// Aggregate arrival cap: the core link serializes at CoreRateBps.
	if maxArr := e.coreRate * dtSec; totalArr > maxArr {
		scale := maxArr / totalArr
		for _, i := range e.activeList {
			e.hot[i].arr *= scale
		}
		totalArr = maxArr
	}

	// Mark fraction over the step, rackmodel-style: linear queue evolution
	// along the net slope, threshold-crossing time pro-rated. Deliveries
	// during the above-threshold portion carry marks — which reach senders
	// with the ACK path's negligible delay, so reactions land this step.
	markNow := markFraction(q0, q0+totalArr-e.drain*dtSec, e.kPkts)

	// Overflow beyond capacity tail-drops the latest-released arrivals
	// (the packets at the back of the FIFO), concentrating loss on
	// stragglers exactly as real tail-drop does.
	overflow := q0 - served + totalArr - e.capPkts
	if overflow > 0 {
		totalArr -= e.dropTail(overflow, stepEnd, rttTime)
	}

	e.q = q0 - served + totalArr
	if e.q < 0 {
		e.q = 0
	}
	e.cumDelivered += served
	e.marks += served * markNow

	// Advance the lazy set's drain coordinate by this step's service
	// fraction before pass 2, so flows parking below anchor against the
	// end-of-step coordinate (their backlogs already reflect this step's
	// deliveries). Crossings fire after pass 2, in lazyFire.
	e.lazyShift(q0, served, markNow)

	// Pass 2: admit arrivals, attribute marks, apply cuts, close rounds.
	// The common case touches only the dense per-flow arrays; the flowState
	// struct (controller and cold fields) is loaded only on round events.
	keep := e.activeList[:0]
	for _, i := range e.activeList {
		h := &e.hot[i]
		w := float64(e.mCnt[i])
		a := h.arr
		d := h.deliv
		h.arr, h.deliv = 0, 0
		if a > 0 {
			u := h.unsent - a
			if u < 0 {
				u = 0
			}
			h.unsent = u
			h.backlog += a
			e.sent += a * w
		}
		if d > 0 {
			h.roundDel += d
			if markNow > 0 {
				h.roundMark += d * markNow
				if !h.reduced {
					h.reduced = true
					f := &e.flows[i]
					f.ctrl.onMarkCut()
					h.win = f.ctrl.window()
				}
			}
		}
		if h.stallT <= e.now {
			// Close the observation round: the DCTCP family closes after
			// one window of data is delivered (packet DCTCP's nextSeq
			// semantics); Swift closes once per RTT.
			var closes bool
			if e.timeRounds {
				f := &e.flows[i]
				if f.roundEnd == 0 {
					f.roundEnd = stepEnd + rttTime
				} else if stepEnd >= f.roundEnd {
					closes = true
					f.roundEnd = stepEnd + rttTime
				}
			} else {
				closes = h.roundDel >= h.win
			}
			if closes {
				if h.roundDel > 0 {
					f := &e.flows[i]
					f.ctrl.onRoundEnd(h.roundDel, h.roundMark, rttSec)
					h.win = f.ctrl.window()
					f.backoff = 0
				}
				h.roundDel, h.roundMark = 0, 0
				h.reduced = false
			}
		} else {
			// Parked on an RTO: the in-queue residue keeps draining (as
			// orphan volume) but the silent sender has nothing to react to
			// before the wake — MinRTO dwarfs a full-queue drain time — so
			// the stall list owns the flow from here.
			e.orphan += h.backlog * w
			h.backlog = 0
			h.ackPipe = 0
			e.flows[i].active = false
			continue
		}
		if h.unsent <= volEps && h.backlog <= finishCrumb {
			// Done: orphan the sub-packet crumb instead of stepping the
			// flow until multiplicative draining grinds it below volEps.
			e.orphan += h.backlog * w
			h.backlog = 0
			h.ackPipe = 0
			e.flows[i].active = false
			continue
		}
		if e.tryLazy(i) {
			continue
		}
		keep = append(keep, i)
	}
	e.activeList = keep

	e.lazyFire(rttSec)
	e.recordCompletions(served, dt, stepEnd)
	e.smp.advance(stepEnd, e.q)
	e.now = stepEnd

	if e.cfg.Check {
		if e.q < -1e-6 || e.q > e.capPkts+1e-6 {
			return fmt.Errorf("flowsim: queue %.6f outside [0, %.0f] at %v", e.q, e.capPkts, e.now)
		}
		if e.steps%4096 == 0 {
			if err := e.checkConservation(); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropTail removes overflow volume from this step's arrivals, latest
// release first, applying the per-victim loss reaction: too little left in
// flight for duplicate ACKs means a timeout stall with exponential RTO
// backoff; otherwise a fast-retransmit halving, at most once per RTT.
// Dropped volume stays in the victims' unsent pools (it was never
// subtracted), modeling retransmission. Returns the volume dropped.
//
// Victims are found by walking the processed releases newest-first: the
// slice is already time-sorted (ties by ascending unit index), so the
// reverse walk yields exactly the (lastRelease desc, unit desc) victim
// order without sorting per step. An entry counts only when it is its
// unit's latest release and the unit offered arrivals this step; split
// descendants share their lineage's release entry and are visited newest
// sub-cohort first. A cohort whose whole weight is consumed reacts in
// place; the cohort the overflow runs out inside splits exactly into
// unaffected / partially-hit / fully-hit sub-cohorts (splitDrop), so
// aggregation never blurs who lost what — and since that terminal split
// exhausts the overflow, each dropTail call splits at most one cohort.
func (e *engine) dropTail(overflow float64, stepEnd, rttTime sim.Time) float64 {
	remaining := overflow
	var dropped float64
	for ri := e.relPtr - 1; ri >= 0 && remaining > volEps; ri-- {
		rel := e.releases[ri]
		for i := rel.flow; i >= 0 && remaining > volEps; i = e.lineNext[i] {
			e.victimScans++
			if e.hot[i].arr <= 0 || e.flows[i].lastRelease != rel.at {
				continue
			}
			w := float64(e.mCnt[i])
			avail := e.hot[i].arr * w
			d := avail
			if d > remaining {
				d = remaining
			}
			if d >= avail {
				// The whole cohort's offer is consumed: every member is a
				// full victim and the record reacts in place.
				e.hot[i].arr -= e.hot[i].arr
				remaining -= d
				dropped += d
				e.drops += d
				e.retxPkts += d
				e.sent += d // the sender did transmit the dropped volume
				e.lossReact(i, stepEnd, rttTime)
				continue
			}
			got := e.splitDrop(i, d, stepEnd, rttTime)
			remaining -= got
			dropped += got
			e.drops += got
			e.retxPkts += got
			e.sent += got
		}
	}
	return dropped
}

// lossReact applies the loss reaction to every member of cohort i at once
// (members share their in-flight state, so the duplicate-ACK test answers
// identically for all of them): a timeout stall with exponential backoff,
// or a fast-retransmit halving at most once per RTT. Counters scale by
// the member count.
func (e *engine) lossReact(i int32, stepEnd, rttTime sim.Time) {
	f := &e.flows[i]
	w := float64(e.mCnt[i])
	if e.hot[i].backlog+e.hot[i].arr < e.cfg.DupAckPackets {
		// Not enough in flight to trigger fast retransmit: stall.
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
	} else if stepEnd-f.lastLoss >= rttTime {
		e.fastRetx += w
		f.ctrl.onLoss()
		e.hot[i].win = f.ctrl.window()
		f.lastLoss = stepEnd
	}
}

// splitDrop removes d (< the cohort's whole offer) from cohort i's
// arrivals by splitting it exactly: kFull = floor(d/perMember) members
// lose their entire offer, at most one more loses the remainder, and the
// rest are untouched. The parent record keeps the head member span (the
// unaffected group when non-empty, else the partial victim); fully- and
// partially-hit groups split off as new records that inherit the parent's
// state and then take their own loss reaction — exactly the per-flow
// outcome, just batched. Returns the volume actually dropped (== d up to
// one float ulp of regrouping).
func (e *engine) splitDrop(i int32, d float64, stepEnd, rttTime sim.Time) float64 {
	per := e.hot[i].arr
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
		e.hot[i].arr -= dPart
		e.lossReact(i, stepEnd, rttTime)
		return dPart
	}

	e.splitsMade++
	off := e.mOff[i]
	if unaffected > 0 {
		// Parent keeps the unaffected head span untouched.
		e.mCnt[i] = unaffected
		if p > 0 {
			part := e.newCohort(i, off+unaffected, 1)
			e.hot[part].arr -= dPart
			e.lossReact(part, stepEnd, rttTime)
		}
		if kFull > 0 {
			full := e.newCohort(i, off+unaffected+p, kFull)
			e.hot[full].arr -= e.hot[full].arr
			e.lossReact(full, stepEnd, rttTime)
		}
	} else {
		// Every member is hit (p == 1, kFull == cnt-1): the parent becomes
		// the partial victim and the full victims split off.
		full := e.newCohort(i, off+1, kFull)
		e.hot[full].arr -= e.hot[full].arr
		e.lossReact(full, stepEnd, rttTime)
		e.mCnt[i] = 1
		e.hot[i].arr -= dPart
		e.lossReact(i, stepEnd, rttTime)
	}
	return float64(kFull)*per + dPart
}

// newCohort splits the member span [off, off+cnt) out of cohort parent as
// a new record carrying a copy of the parent's per-member state, threaded
// into the parent's lineage chain (so future releases reach it) and onto
// the active list (splits only happen to records with live arrivals).
func (e *engine) newCohort(parent, off, cnt int32) int32 {
	ci := int32(len(e.flows))
	e.flows = append(e.flows, e.flows[parent])
	e.hot = append(e.hot, e.hot[parent])
	e.mOff = append(e.mOff, off)
	e.mCnt = append(e.mCnt, cnt)
	e.gRef = append(e.gRef, 0)
	e.mRef = append(e.mRef, 0)
	e.lazy = append(e.lazy, false)
	e.lzStamp = append(e.lzStamp, 0)
	e.lineNext = append(e.lineNext, e.lineNext[parent])
	e.lineNext[parent] = ci
	e.flows[ci].active = true
	e.activeList = append(e.activeList, ci)
	return ci
}

// wakeDue reactivates stalled flows whose RTO expired.
func (e *engine) wakeDue() {
	keep := e.stalled[:0]
	e.nextWake = math.MaxInt64
	for _, i := range e.stalled {
		if e.hot[i].stallT <= e.now {
			e.hot[i].stallT = 0
			if e.hot[i].unsent > volEps || e.hot[i].backlog > volEps {
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

// lazyShift advances the epoch's drain coordinate by one step: service
// fraction s scales every parked backlog by (1-s), and the mark integral
// picks up the coordinate drop weighted by the step's mark fraction.
func (e *engine) lazyShift(q0, served, markNow float64) {
	if e.lzCount == 0 {
		return
	}
	if q0 > 0 && served > 0 {
		gNew := e.lzG * (1 - served/q0)
		if served >= q0 {
			gNew = 0 // full drain: every parked backlog reaches zero
		}
		e.lzM += (e.lzG - gNew) * markNow
		e.lzG = gNew
	} else if q0 <= e.crumbEps {
		// Nothing drains a (near-)empty queue; force the parked residue out
		// so the set cannot outlive the volume it is supposed to track.
		e.lzG = 0
	}
}

// lazyFire pops every finish threshold the coordinate decayed past, then
// renormalizes the epoch before lzG underflows.
func (e *engine) lazyFire(rttSec float64) {
	if e.lzCount == 0 {
		if len(e.lzHeap) > 0 {
			e.lzHeap = e.lzHeap[:0]
			e.lzG, e.lzM = 1, 0
		}
		return
	}
	for len(e.lzHeap) > 0 && e.lzHeap[0].g >= e.lzG {
		ev := e.lzHeapPop()
		if !e.lazy[ev.flow] || e.lzStamp[ev.flow] != ev.stamp {
			continue
		}
		e.touchLazy(ev.flow, rttSec)
	}
	if e.lzCount == 0 {
		e.lzHeap = e.lzHeap[:0]
		e.lzG, e.lzM = 1, 0
		return
	}
	if e.lzG < 1e-120 {
		// Renormalize: materialize every parked backlog in place and
		// re-anchor the epoch at coordinate 1. Thresholds are ratios of
		// coordinates, so rescaling the heap keys preserves every pending
		// event exactly.
		inv := 1 / e.lzG
		for i := range e.lazy {
			if !e.lazy[i] {
				continue
			}
			g := e.lzG / e.gRef[i]
			bHat := e.hot[i].backlog
			b := bHat * g
			e.hot[i].roundDel += bHat - b
			e.hot[i].roundMark += bHat * (e.lzM - e.mRef[i]) / e.gRef[i]
			e.hot[i].backlog = b
			e.gRef[i] = 1
			e.mRef[i] = 0
		}
		for j := range e.lzHeap {
			e.lzHeap[j].g *= inv
		}
		e.lzG, e.lzM = 1, 0
	}
}

// tryLazy parks an active flow in the lazy drain set when its remaining
// evolution is pure pro-rata draining: a spent flow (no unsent demand)
// waiting out its backlog. Its only hard deadline — the finish crumb —
// becomes a drain-coordinate threshold on the event heap; intermediate
// round closes are batch-replayed at the next touch (see touchLazy), so
// they cost nothing while the flow is parked. Returns false (stay eager)
// for senders — a window-limited flow tops its backlog up every step (the
// ACK clock), so parking one would thrash straight back — and for
// time-based-round laws, whose round closes are clock events.
func (e *engine) tryLazy(i int32) bool {
	if e.timeRounds || e.hot[i].unsent > volEps {
		return false
	}
	b := e.hot[i].backlog
	if b <= finishCrumb {
		return false
	}
	gStar := e.lzG * finishCrumb / b // finish: the crumb threshold
	if gStar >= e.lzG {
		return false // already due: let the eager path resolve it
	}
	e.hot[i].ackPipe = 0 // delivered-not-acked volume is never consulted again
	e.gRef[i] = e.lzG
	e.mRef[i] = e.lzM
	e.lazy[i] = true
	e.lzCount++
	e.flows[i].active = false
	e.lzHeapPush(lzEvent{g: gStar, flow: i, stamp: e.lzStamp[i]})
	return true
}

// touchLazy materializes a parked flow at the current drain coordinate —
// collapsing its deferred deliveries into backlog/roundDel/roundMark —
// replays the controller rounds that elapsed while parked, and re-disposes
// the flow: finished, parked again behind a fresh threshold, or back to
// eager.
//
// Round replay batches what the eager path does step by step: each round
// delivers one window and carries the parked period's average mark
// fraction, with the once-per-round cut applied on marked rounds exactly
// as pass 2 would on the round's first marked delivery. A drainer's
// service is pro rata regardless of its window, so batching leaves the
// queue trajectory untouched; only the controller bookkeeping (window and
// alpha evolution, update counts) is replayed, and under the sustained
// marking that dominates parked periods the per-round mark fractions are
// flat, making the average faithful.
func (e *engine) touchLazy(i int32, rttSec float64) {
	g := e.lzG / e.gRef[i]
	bHat := e.hot[i].backlog
	b := bHat * g
	e.hot[i].backlog = b
	e.hot[i].roundDel += bHat - b
	e.hot[i].roundMark += bHat * (e.lzM - e.mRef[i]) / e.gRef[i]
	e.lazy[i] = false
	e.lzCount--
	e.lzStamp[i]++

	if del := e.hot[i].roundDel; del > 0 {
		f := &e.flows[i]
		fbar := 0.0
		if e.hot[i].roundMark > 0 {
			fbar = e.hot[i].roundMark / del
			if fbar > 1 {
				fbar = 1
			}
		}
		for guard := 0; guard < 1<<14; guard++ {
			if fbar > 0 && !e.hot[i].reduced {
				e.hot[i].reduced = true
				f.ctrl.onMarkCut()
				e.hot[i].win = f.ctrl.window()
			}
			w := e.hot[i].win
			if del < w {
				break
			}
			f.ctrl.onRoundEnd(w, w*fbar, rttSec)
			e.hot[i].win = f.ctrl.window()
			f.backoff = 0
			del -= w
			e.hot[i].reduced = false
		}
		e.hot[i].roundDel = del
		e.hot[i].roundMark = del * fbar
	}
	if e.hot[i].unsent <= volEps && e.hot[i].backlog <= finishCrumb {
		e.orphan += e.hot[i].backlog * float64(e.mCnt[i])
		e.hot[i].backlog = 0
		return // done, exactly as pass 2's finish branch
	}
	if e.tryLazy(i) {
		return
	}
	e.activate(i)
}

// lzHeapPush and lzHeapPop maintain the max-heap of pending coordinate
// thresholds (largest fires first as lzG decays).
func (e *engine) lzHeapPush(ev lzEvent) {
	h := append(e.lzHeap, ev)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if h[p].g >= h[j].g {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	e.lzHeap = h
}

func (e *engine) lzHeapPop() lzEvent {
	h := e.lzHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		m := j
		if l < len(h) && h[l].g > h[m].g {
			m = l
		}
		if r < len(h) && h[r].g > h[m].g {
			m = r
		}
		if m == j {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
	e.lzHeap = h
	return top
}

// recordCompletions detects burst completions: burst b is done when the
// cumulative delivered volume reaches its target (per-flow demand cannot
// over-deliver, so the aggregate crossing implies every flow finished).
// The completion instant is interpolated within the step; half a base RTT
// approximates the final ACK's return path.
func (e *engine) recordCompletions(served float64, dt, stepEnd sim.Time) {
	for e.burstsDone < e.cfg.Bursts {
		target := float64(e.burstsDone+1) * float64(e.cfg.Flows) * e.segs
		if e.cumDelivered < target-e.crumbEps {
			break
		}
		if e.releasedFlows < float64((e.burstsDone+1)*e.cfg.Flows) {
			break // not every flow of this burst has even been released
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

// checkConservation verifies that released volume equals delivered volume
// plus what is still unsent or queued, and that the aggregate queue agrees
// with the per-flow backlogs.
func (e *engine) checkConservation() error {
	var unsent, backlog float64
	for i := range e.flows {
		w := float64(e.mCnt[i])
		unsent += e.hot[i].unsent * w
		b := e.hot[i].backlog
		if e.lazy[i] {
			b *= e.lzG / e.gRef[i] // parked: deliveries deferred in lzG
		}
		backlog += b * w
	}
	backlog += e.orphan
	released := e.releasedFlows * e.segs
	tol := 1e-6*released + float64(e.cfg.Flows)*volEps*10 + 1e-3
	if diff := math.Abs(released - (e.cumDelivered + unsent + backlog)); diff > tol {
		return fmt.Errorf("flowsim: volume conservation violated at %v: released %.3f != delivered %.3f + unsent %.3f + queued %.3f (diff %.6f)",
			e.now, released, e.cumDelivered, unsent, backlog, diff)
	}
	if diff := math.Abs(backlog - e.q); diff > 1e-3+1e-6*e.capPkts {
		return fmt.Errorf("flowsim: queue accounting violated at %v: aggregate %.6f vs per-flow sum %.6f",
			e.now, e.q, backlog)
	}
	return nil
}

// finish assembles the Result.
func (e *engine) finish() (*Result, error) {
	cfg := e.cfg
	if err := e.checkConservation(); err != nil {
		return nil, err
	}
	if len(e.bcts) < cfg.Bursts {
		return nil, fmt.Errorf("flowsim: only %d of %d bursts completed", len(e.bcts), cfg.Bursts)
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
	// Per-flow end-state: every member of a record shares its controller,
	// so each member gets the record's window (and alpha), written at the
	// member's flow ID so the histograms match per-flow runs flow for flow.
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
	r.VictimScans = e.victimScans
	r.PeakCohortWeight = e.peakW
	return r, nil
}
