package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"incastlab/internal/sim"
)

// incastEndpoints places aggs aggregators at slot 0 of racks 0..aggs-1,
// each fanning in perAgg workers: under its own leaf (sameRack) or
// round-robin over the other racks, each rack's slots handed out in turn.
func incastEndpoints(c ClosConfig, aggs, perAgg int, sameRack bool) (srcs, dsts []NodeID) {
	next := make([]int, c.Racks)
	for r := 0; r < aggs; r++ {
		next[r] = 1
	}
	for k := 0; k < aggs; k++ {
		for i := 0; i < perAgg; i++ {
			r := k
			if !sameRack {
				r = (k + 1 + i%(c.Racks-1)) % c.Racks
			}
			srcs = append(srcs, c.HostID(r, next[r]))
			dsts = append(dsts, c.HostID(k, 0))
			next[r]++
		}
	}
	return srcs, dsts
}

// perFlowRoutes rebuilds every flow's queue path by name and its base RTT
// straight from (src, dst, ECMPIndex), the way a per-flow builder routes,
// and lists the queue names in the order such a builder first uses them
// (downlink, then uplink and spine downlink).
func perFlowRoutes(c ClosConfig, srcs, dsts []NodeID) (paths [][]string, rtts []sim.Time, firstUse []string) {
	seen := map[string]bool{}
	use := func(name string) string {
		if !seen[name] {
			seen[name] = true
			firstUse = append(firstUse, name)
		}
		return name
	}
	for i := range srcs {
		src, dst := srcs[i], dsts[i]
		sr, dr := c.RackOf(src), c.RackOf(dst)
		down := use(fmt.Sprintf("leaf-%d-port-%d", dr, int(dst)-dr*c.HostsPerRack))
		if sr == dr {
			paths = append(paths, []string{down})
			rtts = append(rtts, c.BaseRTT(false))
			continue
		}
		s := ECMPIndex(c.ECMPSeed, FlowID(i+1), src, dst, c.Spines)
		up := use(fmt.Sprintf("leaf-%d-uplink-%d", sr, s))
		sd := use(fmt.Sprintf("spine-%d-port-%d", s, dr))
		paths = append(paths, []string{up, sd, down})
		rtts = append(rtts, c.BaseRTT(true))
	}
	return paths, rtts, firstUse
}

// TestFluidPathsClassNative pins the class-native path set to a per-flow
// rebuild over several geometries: every flow's class path and base RTT
// are its own route, queues appear in per-flow first-use order, and the
// class IDs are exactly a per-flow hash's first-appearance numbering —
// the partition PathClasses returns, at no extra cost.
func TestFluidPathsClassNative(t *testing.T) {
	for _, sameRack := range []bool{false, true} {
		for _, aggs := range []int{1, 2, 5, 8} {
			for _, seed := range []uint64{0, 1, 7, 1 << 40} {
				c := DefaultClosConfig(8, 64)
				c.Spines = 3
				c.ECMPSeed = seed
				perAgg := 50
				if sameRack {
					perAgg = 40
				}
				srcs, dsts := incastEndpoints(c, aggs, perAgg, sameRack)
				name := fmt.Sprintf("sameRack=%v/aggs=%d/seed=%d", sameRack, aggs, seed)
				p, err := c.FluidPaths(srcs, dsts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				paths, rtts, firstUse := perFlowRoutes(c, srcs, dsts)
				var names []string
				for _, q := range p.Queues {
					names = append(names, q.Name)
				}
				if !slices.Equal(names, firstUse) {
					t.Fatalf("%s: queues %v, want per-flow first-use order %v", name, names, firstUse)
				}
				if len(p.Class) != len(srcs) {
					t.Fatalf("%s: %d class entries for %d flows", name, len(p.Class), len(srcs))
				}
				ref := map[string]int32{}
				for i, c := range p.Class {
					var got []string
					for _, j := range p.Paths[c] {
						got = append(got, p.Queues[j].Name)
					}
					if !slices.Equal(got, paths[i]) || p.BaseRTT[c] != rtts[i] {
						t.Fatalf("%s: flow %d class %d path %v rtt %v, want %v rtt %v",
							name, i, c, got, p.BaseRTT[c], paths[i], rtts[i])
					}
					k := fmt.Sprint(paths[i], rtts[i])
					id, ok := ref[k]
					if !ok {
						id = int32(len(ref))
						ref[k] = id
					}
					if c != id {
						t.Fatalf("%s: flow %d in class %d, want first-appearance class %d", name, i, c, id)
					}
				}
				if len(p.Paths) != len(ref) {
					t.Fatalf("%s: %d stored classes, want %d distinct routes", name, len(p.Paths), len(ref))
				}
				classOf, n := p.PathClasses()
				if n != len(p.Paths) || !slices.Equal(classOf, p.Class) {
					t.Fatalf("%s: PathClasses = %d classes, want the stored %d", name, n, len(p.Paths))
				}
			}
		}
	}
}

// TestPathClassesCanonicalizes covers hand-built path sets that store one
// route under several class IDs (including a route deeper than 4 hops):
// PathClasses merges them and renumbers in first-appearance order over
// flows.
func TestPathClassesCanonicalizes(t *testing.T) {
	q := FluidQueue{Name: "q", RateBps: Gbps, CapacityPackets: 10, ECNThresholdPackets: 5}
	long := []int32{0, 1, 2, 3, 4}
	us := sim.Microsecond
	p := &FluidPaths{
		Queues:  []FluidQueue{q, q, q, q, q},
		Paths:   [][]int32{{0, 4}, {4}, {0, 4}, long, {0, 4}, long},
		BaseRTT: []sim.Time{10 * us, 10 * us, 10 * us, 10 * us, 20 * us, 10 * us},
		Class:   []int32{2, 1, 0, 5, 3, 4, 2, 1},
		Stage:   []int{0, 1, 2, 3, 4},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	classOf, n := p.PathClasses()
	if want := []int32{0, 1, 0, 2, 2, 3, 0, 1}; n != 4 || !slices.Equal(classOf, want) {
		t.Errorf("PathClasses = %v (%d classes), want %v (4 classes)", classOf, n, want)
	}
	if &classOf[0] == &p.Class[0] {
		t.Error("renumbered classes alias the stored class IDs")
	}
}

// TestFluidPathsValidateClasses: every flow must name a stored class.
func TestFluidPathsValidateClasses(t *testing.T) {
	q := FluidQueue{Name: "q", RateBps: Gbps, CapacityPackets: 10, ECNThresholdPackets: 5}
	for _, c := range []int32{-1, 1} {
		p := &FluidPaths{
			Queues:  []FluidQueue{q},
			Paths:   [][]int32{{0}},
			BaseRTT: []sim.Time{sim.Microsecond},
			Class:   []int32{0, c},
			Stage:   []int{0},
		}
		if err := p.Validate(); err == nil {
			t.Errorf("flow in class %d of 1 accepted", c)
		}
	}
}

// TestFluidPathsMillionFlowAllocs bounds what building the million-flow
// single-row geometry (16 aggregators x 65,536 cross-rack workers, the
// shipped clos_million_flow_single scenario) allocates: one class ID per
// flow plus a few hundred class paths, not a path slice and an RTT per
// flow.
func TestFluidPathsMillionFlowAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow path build is not a -short test")
	}
	c := DefaultClosConfig(16, 65560)
	c.SpineLinkBps = 400 * Gbps
	c.ECMPSeed = 1
	srcs, dsts := incastEndpoints(c, 16, 65536, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	p, err := c.FluidPaths(srcs, dsts)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d flows: %d classes, %.1f MB allocated, %v", len(srcs), len(p.Paths),
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), took)
	if len(p.Paths) != 480 {
		t.Errorf("%d path classes, want 480 (16 downlinks x 15 source racks x 2 spines)", len(p.Paths))
	}
	const bound = 10 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("building %d flows' paths allocated %.1f MB, want <= %d MB", len(srcs), float64(got)/(1<<20), bound>>20)
	}
}
