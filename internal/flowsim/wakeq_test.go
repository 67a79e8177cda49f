package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// twoHopNet is n flows sharing one uplink -> downlink path whose downlink
// holds only capPkts packets.
func twoHopNet(n, capPkts int) *netsim.FluidPaths {
	return &netsim.FluidPaths{
		Queues: []netsim.FluidQueue{
			{Name: "uplink", RateBps: 10 * netsim.Gbps, CapacityPackets: 1000, ECNThresholdPackets: 65},
			{Name: "downlink", RateBps: netsim.Gbps, CapacityPackets: capPkts, ECNThresholdPackets: 5},
		},
		Paths:      [][]int32{{0, 1}},
		BaseRTT:    []sim.Time{20 * sim.Microsecond},
		Class:      make([]int32, n),
		Stage:      []int{0, 1},
		Bottleneck: 1,
	}
}

// TestNetWakeOrder pins the RTO wake queue to stall order: records whose
// deadlines fall due together activate in the order they stalled — not by
// deadline, not by record index — and a record parked again before its
// first entry came due wakes once, at its new deadline, in its first
// stall's place. nextWake always reports the earliest filed deadline.
func TestNetWakeOrder(t *testing.T) {
	ncfg := NetworkConfig{Config: quickConfig(8, CCConfig{}), Net: twoHopNet(8, 100)}
	if err := ncfg.prepare(); err != nil {
		t.Fatal(err)
	}
	e := newNetEngine(ncfg, singletonPlan(8))
	defer e.release()
	for i := range e.hot {
		e.hot[i].unsent = 1
	}
	wantNext := func(step string, want sim.Time) {
		t.Helper()
		if got := e.nextWake(); got != want {
			t.Fatalf("%s: nextWake %v, want %v", step, got, want)
		}
	}
	wakeAt := func(now sim.Time, want ...int32) {
		t.Helper()
		e.now = now
		e.activeList = e.activeList[:0]
		for i := range e.flows {
			e.flows[i].active = false
		}
		e.wakeDue()
		if !slices.Equal(e.activeList, want) {
			t.Fatalf("wake at %v activated %v, want %v", now, e.activeList, want)
		}
	}

	wantNext("empty", math.MaxInt64)
	e.park(3, 100)
	wantNext("park r3", 100)
	e.park(1, 100)
	e.park(2, 50)
	wantNext("park r2", 50)
	e.park(0, 200)
	// Stall order 3, 1, 2; deadline order would put r2 first, index order
	// r1 first.
	wakeAt(100, 3, 1, 2)
	wantNext("after first wake", 200)

	e.park(6, 120)
	e.park(5, 240)
	// r6 is parked again (a drop in the step straddling 120) before its
	// first entry is due.
	e.now = 130
	e.park(6, 250)
	wantNext("re-park r6", 120)
	// At 200 r6's first entry is due but r6 now waits for 250: it is
	// re-filed, not woken.
	wakeAt(200, 0)
	wantNext("after second wake", 240)
	// At 250 both r6 entries and r5 are due: r6 stalled first, so it
	// activates first (and once), although r5's deadline is earlier and
	// its index lower.
	wakeAt(250, 6, 5)
	wantNext("drained", math.MaxInt64)
	for i, h := range e.hot {
		if h.stallT != 0 {
			t.Errorf("r%d still parked until %v", i, h.stallT)
		}
	}
}

// TestNetStrandedDiagnostic: a run whose RTO backoff outlasts the horizon
// fails naming what holds the missing volume — the parked records with
// their backoff and earliest wake — rather than just a packet count.
func TestNetStrandedDiagnostic(t *testing.T) {
	const step = 100 * sim.Microsecond
	_, err := RunNetwork(NetworkConfig{
		Config: Config{
			Flows:           4,
			SegmentsPerFlow: 200,
			Bursts:          1,
			Interval:        50 * sim.Millisecond,
			MinRTO:          sim.Second,
			MaxRTO:          sim.Second,
			DupAckPackets:   1 << 20, // every loss is timeout-class
			MinStep:         step,
			MaxStep:         step,
			LineRateBps:     10 * netsim.Gbps,
			Horizon:         10 * sim.Millisecond,
			Check:           true,
		},
		Net: twoHopNet(4, 12),
	})
	if err == nil {
		t.Fatal("run with a 1 s RTO completed inside a 60 ms deadline")
	}
	t.Log(err)
	m := regexp.MustCompile(`did not complete .*; (\d+) records on the RTO wake queue, highest backoff (\d+), earliest wake ([^;]+); (\d+) records hold [0-9.]+ unsent packets but are neither active nor queued to wake; `).
		FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error does not name the stranded state: %v", err)
	}
	if parked, _ := strconv.Atoi(m[1]); parked < 1 || parked > 4 {
		t.Errorf("%d records parked, want 1..4: %v", parked, err)
	}
	if backoff, _ := strconv.Atoi(m[2]); backoff < 1 {
		t.Errorf("highest backoff %d, want >= 1: %v", backoff, err)
	}
	if m[4] != "0" {
		t.Errorf("%s unwakeable records in a run without splits: %v", m[4], err)
	}
}

// referenceReleases is the comparison-sort schedule buildReleases must
// reproduce: each burst's (start, unit) pairs packed into one key and
// sorted.
func referenceReleases(cfg Config, nUnits int) []release {
	const unitBits = 20
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	var releases []release
	keys := make([]uint64, nUnits)
	for b := 0; b < cfg.Bursts; b++ {
		start := sim.Time(b) * cfg.Interval
		for i := range keys {
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

// TestBuildReleasesMatchesSort pins the radix-sorted release schedule to
// the comparison sort over unit counts, burst counts, and jitter ceilings
// from one nanosecond (one digit pass) to just under the interval.
func TestBuildReleasesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const interval = 250 * sim.Millisecond
	for _, jitter := range []sim.Time{1, 100 * sim.Microsecond, 100 * sim.Millisecond, interval - 1} {
		for trial := 0; trial < 8; trial++ {
			cfg := Config{
				Bursts:    1 + rng.Intn(4),
				Interval:  interval,
				JitterMax: jitter,
				Seed:      uint64(1 + rng.Intn(1000)),
			}
			n := 1 + rng.Intn(5000)
			name := fmt.Sprintf("jitter=%v/units=%d/bursts=%d/seed=%d", jitter, n, cfg.Bursts, cfg.Seed)
			if got, want := buildReleases(cfg, n), referenceReleases(cfg, n); !slices.Equal(got, want) {
				t.Fatalf("%s: radix schedule differs from the sorted reference", name)
			}
		}
	}
}
