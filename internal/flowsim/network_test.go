package flowsim

import (
	"math"
	"slices"
	"testing"
	"time"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// runGeneral forces a config through the general multi-queue integrator
// even when it is the trivial one-queue instance RunNetwork would
// delegate, so tests can compare the two solvers directly.
func runGeneral(t *testing.T, cfg Config) *Result {
	t.Helper()
	ncfg, err := SingleQueue(cfg)
	if err != nil {
		t.Fatalf("SingleQueue: %v", err)
	}
	if err := ncfg.prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	e := newNetEngine(ncfg, singletonPlan(ncfg.Flows))
	if err := e.run(); err != nil {
		t.Fatalf("netEngine run: %v", err)
	}
	res, err := e.finish()
	if err != nil {
		t.Fatalf("netEngine finish: %v", err)
	}
	return res
}

// TestRunNetworkTrivialDelegates pins the "dumbbell as trivial one-queue
// instance" contract: RunNetwork on the SingleQueue wrapping of a config
// returns byte-identical results to Run, because it IS Run.
func TestRunNetworkTrivialDelegates(t *testing.T) {
	cfg := quickConfig(80, CCConfig{})
	want, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ncfg, err := SingleQueue(cfg)
	if err != nil {
		t.Fatalf("SingleQueue: %v", err)
	}
	if !ncfg.trivial() {
		t.Fatalf("SingleQueue config not detected as the trivial instance")
	}
	got, err := RunNetwork(ncfg)
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if got.Steps != want.Steps || got.MeanBCT != want.MeanBCT || got.MaxQueue != want.MaxQueue ||
		got.Timeouts != want.Timeouts || got.FracBelowK != want.FracBelowK ||
		got.SentPackets != want.SentPackets || got.DeliveredPackets != want.DeliveredPackets {
		t.Errorf("trivial RunNetwork diverged from Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestNetworkSingleQueueEquivalence runs the general integrator on the
// one-queue dumbbell and compares it to the optimized single-queue engine
// at the three quick Fig-5 operating points: the paper's mode
// classification must be identical and the headline levels must agree
// within the pinned tolerances. The engines are not bit-equal — the
// general integrator drains a stalled flow's in-network residue under its
// own name instead of the single-queue orphan bucket, and sizes steps
// from per-flow RTTs — so the tolerances bound the real modeling gap.
func TestNetworkSingleQueueEquivalence(t *testing.T) {
	for _, n := range []int{80, 500, 1400} {
		cfg := quickConfig(n, CCConfig{})
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("n=%d Run: %v", n, err)
		}
		got := runGeneral(t, cfg)
		if wm, gm := Classify(want.Timeouts, want.FracBelowK), Classify(got.Timeouts, got.FracBelowK); wm != gm {
			t.Errorf("n=%d: mode %q (general) vs %q (single-queue)", n, gm, wm)
		}
		relBCT := math.Abs(float64(got.MeanBCT-want.MeanBCT)) / float64(want.MeanBCT)
		if relBCT > 0.10 {
			t.Errorf("n=%d: mean BCT %.3f ms (general) vs %.3f ms (single-queue), rel %.3f > 0.10",
				n, float64(got.MeanBCT)/1e6, float64(want.MeanBCT)/1e6, relBCT)
		}
		if want.MaxQueue > 0 {
			relQ := math.Abs(got.MaxQueue-want.MaxQueue) / want.MaxQueue
			if relQ > 0.10 {
				t.Errorf("n=%d: max queue %.1f (general) vs %.1f (single-queue), rel %.3f > 0.10",
					n, got.MaxQueue, want.MaxQueue, relQ)
			}
		}
		if diff := math.Abs(got.FracBelowK - want.FracBelowK); diff > 0.05 {
			t.Errorf("n=%d: FracBelowK %.3f (general) vs %.3f (single-queue), diff %.3f > 0.05",
				n, got.FracBelowK, want.FracBelowK, diff)
		}
	}
}

// closQuickConfig builds a NetworkConfig for an n-flow cross-rack incast
// on the default two-spine fabric, the fluid mirror of
// workload.ClosIncast's cross-rack placement.
func closQuickConfig(t testing.TB, n int, placementCross bool) NetworkConfig {
	t.Helper()
	cc := netsim.DefaultClosConfig(8, 501)
	srcs := make([]netsim.NodeID, n)
	dsts := make([]netsim.NodeID, n)
	for i := range srcs {
		if placementCross {
			srcs[i] = cc.HostID(1+i%(cc.Racks-1), i/(cc.Racks-1))
		} else {
			srcs[i] = cc.HostID(0, i+1)
		}
		dsts[i] = 0
	}
	net, err := cc.FluidPaths(srcs, dsts)
	if err != nil {
		t.Fatalf("FluidPaths: %v", err)
	}
	cfg := quickConfig(n, CCConfig{})
	cfg.BaseRTT = cc.BaseRTT(placementCross)
	return NetworkConfig{Config: cfg, Net: net}
}

// TestNetworkClosCrossRack smoke-tests the multi-queue integrator on the
// real fabric geometry with per-step invariant checking on: every burst
// completes, conservation holds at every checkpoint, and the bottleneck
// statistics land in the mode the packet backend sees for the same
// operating point (Mode 1 at 80 flows, Mode 2 at 500).
func TestNetworkClosCrossRack(t *testing.T) {
	for _, tc := range []struct {
		n    int
		mode string
	}{
		{80, "1 (healthy)"},
		{500, "2 (degenerate)"},
	} {
		res, err := RunNetwork(closQuickConfig(t, tc.n, true))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got := Classify(res.Timeouts, res.FracBelowK); got != tc.mode {
			t.Errorf("n=%d: mode %q, want %q (timeouts=%d fracBelowK=%.3f)",
				tc.n, got, tc.mode, res.Timeouts, res.FracBelowK)
		}
		if res.DeliveredPackets <= 0 || res.MeanBCT <= 0 {
			t.Errorf("n=%d: degenerate result: delivered=%d meanBCT=%v",
				tc.n, res.DeliveredPackets, res.MeanBCT)
		}
	}
}

// TestNetworkSameRackMatchesDumbbell pins the Clos same-rack placement to
// the dumbbell: a same-rack incast's only queue is the aggregator's leaf
// downlink, so RunNetwork detects the trivial instance and delegates to
// the single-queue engine, reproducing Run exactly.
func TestNetworkSameRackMatchesDumbbell(t *testing.T) {
	ncfg := closQuickConfig(t, 80, false)
	if err := ncfg.prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if !ncfg.trivial() {
		t.Fatalf("same-rack Clos incast not detected as the trivial one-queue instance")
	}
	got, err := RunNetwork(ncfg)
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	want, err := Run(ncfg.Config)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Steps != want.Steps || got.MeanBCT != want.MeanBCT || got.Timeouts != want.Timeouts {
		t.Errorf("same-rack RunNetwork diverged from Run: steps %d vs %d, meanBCT %v vs %v",
			got.Steps, want.Steps, got.MeanBCT, want.MeanBCT)
	}
}

// TestNetworkValidation covers RunNetwork's input contract: a nil
// network, mismatched flow counts, and structurally invalid path sets all
// fail with named errors instead of running.
func TestNetworkValidation(t *testing.T) {
	cfg := quickConfig(4, CCConfig{})
	if _, err := RunNetwork(NetworkConfig{Config: cfg}); err == nil {
		t.Error("nil network accepted")
	}
	ncfg, err := SingleQueue(cfg)
	if err != nil {
		t.Fatalf("SingleQueue: %v", err)
	}
	ncfg.Flows = 5
	if _, err := RunNetwork(ncfg); err == nil {
		t.Error("flow/path count mismatch accepted")
	}
	bad := &netsim.FluidPaths{
		Queues:  []netsim.FluidQueue{{Name: "x", RateBps: 0, CapacityPackets: 1, ECNThresholdPackets: 1}},
		Paths:   [][]int32{{0}},
		BaseRTT: []sim.Time{sim.Millisecond},
		Class:   []int32{0},
		Stage:   []int{0},
	}
	if _, err := RunNetwork(NetworkConfig{Config: quickConfig(1, CCConfig{}), Net: bad}); err == nil {
		t.Error("zero-rate queue accepted")
	}
}

// dropFixture hand-builds a three-queue network and a netEngine poised
// for a tail drop at the shared downlink (queue 2). Records, by release
// order (oldest first):
//
//	rel 0 at 10: r3, 3 members, uplink B -> downlink
//	rel 1 at 20: r0, 1 member,  uplink A -> downlink
//	rel 2 at 30: r1, 2 members, uplink A -> downlink, lineage r1 -> r4
//	             (r4 a 1-member split descendant)
//	rel 3 at 40: r2, 1 member,  uplink B only: never crosses the downlink
//
// Every member offers 1 packet at its path's last hop this step, so the
// downlink's arrivals total 7 packets. The release order deliberately
// differs from record order.
func dropFixture(t *testing.T) *netEngine {
	t.Helper()
	q := func(name string) netsim.FluidQueue {
		return netsim.FluidQueue{Name: name, RateBps: 10 * netsim.Gbps, CapacityPackets: 100, ECNThresholdPackets: 65}
	}
	ad, bd, b := []int32{0, 2}, []int32{1, 2}, []int32{1}
	net := &netsim.FluidPaths{
		Queues:     []netsim.FluidQueue{q("uplinkA"), q("uplinkB"), q("downlink")},
		Paths:      [][]int32{ad, b, bd},
		BaseRTT:    []sim.Time{10 * sim.Microsecond, 10 * sim.Microsecond, 10 * sim.Microsecond},
		Class:      []int32{0, 0, 0, 0, 1, 2, 2, 2},
		Stage:      []int{0, 0, 1},
		Bottleneck: 2,
	}
	ncfg := NetworkConfig{Config: quickConfig(8, CCConfig{}), Net: net}
	if err := ncfg.prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	plan := cohortPlan{
		perm: []int32{0, 1, 2, 3, 4, 5, 6, 7},
		off:  []int32{0, 1, 4, 5},
		cnt:  []int32{1, 3, 1, 3},
	}
	e := newNetEngine(ncfg, plan)
	t.Cleanup(e.release)
	e.mCnt[1] = 2
	if child := e.newNetCohort(1, e.mOff[1]+2, 1); child != 4 {
		t.Fatalf("split descendant is record %d, want 4", child)
	}
	e.releases = []release{{at: 10, flow: 3}, {at: 20, flow: 0}, {at: 30, flow: 1}, {at: 40, flow: 2}}
	e.indexVictims()
	e.relPtr = len(e.releases)
	for _, r := range e.releases {
		for i := r.flow; i >= 0; i = e.lineNext[i] {
			e.flows[i].lastRelease = r.at
		}
	}
	for i := range e.flows {
		path := e.paths[i]
		e.arrH[e.off[i]+int32(len(path)-1)] = 1
		e.arrTotal[path[len(path)-1]] += float64(e.mCnt[i])
	}
	return e
}

// arrAt is record i's per-member arrival into queue j this step.
func arrAt(e *netEngine, i, j int32) float64 {
	return e.arrH[e.off[i]+int32(slices.Index(e.paths[i], j))]
}

// TestNetDropVictimOrder pins the tail-drop victim order of the network
// solver's per-queue release index: releases whose path skips the
// overflowing queue are never victims (nor even examined), victims go
// newest release first, a split lineage is walked in chain order, and the
// cohort the overflow runs out inside is the only one that splits.
func TestNetDropVictimOrder(t *testing.T) {
	const downlink = 2

	// Chain order: r1 (lineage head) absorbs the whole overflow before its
	// split descendant r4 is reached.
	e := dropFixture(t)
	e.dropTailQueue(downlink, 2, 50)
	if got := arrAt(e, 1, downlink); got != 0 {
		t.Errorf("chain head r1 keeps %.2f arrivals, want 0", got)
	}
	for _, i := range []int32{4, 0, 3} {
		if got := arrAt(e, i, downlink); got != 1 {
			t.Errorf("r%d arrivals %.2f after a drop its lineage head absorbed, want 1", i, got)
		}
	}
	if e.victimScans != 1 || e.splitsMade != 0 {
		t.Errorf("chain-order drop: %d records scanned, %d splits; want 1, 0", e.victimScans, e.splitsMade)
	}

	// Newest release first: 5.5 packets consume rel 2's lineage (r1, r4)
	// and rel 1 (r0) whole, then run out inside rel 0's 3-member r3, which
	// alone splits into unaffected, partially hit and fully hit records.
	e = dropFixture(t)
	unsent := e.hot[2].unsent
	e.dropTailQueue(downlink, 5.5, 50)
	for _, i := range []int32{1, 4, 0} {
		if got := arrAt(e, i, downlink); got != 0 {
			t.Errorf("r%d keeps %.2f arrivals, want 0 (newer than the split victim)", i, got)
		}
	}
	if e.splitsMade != 1 || len(e.flows) != 7 {
		t.Fatalf("%d splits into %d records, want exactly one split into 7", e.splitsMade, len(e.flows))
	}
	if e.mCnt[3] != 1 || arrAt(e, 3, downlink) != 1 {
		t.Errorf("r3 parent: %d members with %.2f arrivals, want the 1 unaffected member at 1",
			e.mCnt[3], arrAt(e, 3, downlink))
	}
	if got := []float64{arrAt(e, 5, downlink), arrAt(e, 6, downlink)}; got[0] != 0.5 || got[1] != 0 {
		t.Errorf("r3 split records keep arrivals %v, want [0.5 0] (partial, full)", got)
	}
	if got := e.arrTotal[downlink]; math.Abs(got-1.5) > 1e-12 {
		t.Errorf("downlink arrivals %.3f after dropping 5.5 of 7, want 1.5", got)
	}
	// r2 is the newest release but routes around the downlink.
	if got := arrAt(e, 2, 1); got != 1 || e.hot[2].unsent != unsent || e.hot[2].stallT != 0 {
		t.Errorf("off-path r2 touched: arrivals %.2f, unsent %.2f (was %.2f), stallT %v",
			got, e.hot[2].unsent, unsent, e.hot[2].stallT)
	}
	if e.victimScans != 4 {
		t.Errorf("%d records scanned, want 4 (r1, r4, r0, r3; never r2)", e.victimScans)
	}
}

// BenchmarkNetEngineStep measures the network solver alone, per
// record-step (one record advanced through one fluid step), on a
// cohort-aggregated cross-rack Clos incast. Path construction and the
// cohort plan stay outside the timed region.
func BenchmarkNetEngineStep(b *testing.B) {
	ncfg := closQuickConfig(b, 3500, true)
	ncfg.Aggregation = AggregationCohort
	ncfg.Check = false
	if err := ncfg.prepare(); err != nil {
		b.Fatal(err)
	}
	classOf, nClasses := ncfg.Net.PathClasses()
	var elapsed time.Duration
	var recordSteps uint64
	for i := 0; i < b.N; i++ {
		// Splits rewrite the plan's member counts, so each run gets its own.
		e := newNetEngine(ncfg, buildPlan(&ncfg.Config, classOf, nClasses))
		start := time.Now()
		if err := e.run(); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		recordSteps += e.recordSteps
		e.release()
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(recordSteps), "ns/record-step")
}
