package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"incastlab/internal/core"
	"incastlab/internal/obs"
)

// repReport is what one repetition's process tells the parent.
type repReport struct {
	// FirstRowUnixNS is when the first row started; the parent subtracts
	// its own launch time to get setup_s.
	FirstRowUnixNS int64   `json:"first_row_unix_ns"`
	WarmS          float64 `json:"warm_s"`
	Tally          tally   `json:"tally"`
	HaveRefs       bool    `json:"have_refs"`
	// Go runtime totals at the end of the cold pass.
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
	GCPauseS float64 `json:"gc_pause_s"`
	// Traced repetitions only: time spent in probe spans, and the layer
	// metrics computed from the spans and the obs registry.
	ProbeS float64            `json:"probe_s,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runRep runs repetition idx of a workload in this process.
func runRep(w workloadDef, seed uint64, traced, warm bool, idx int) (*repReport, error) {
	r, err := newRep(w, seed, traced)
	if err != nil {
		return nil, err
	}
	r.warm = warm
	defer os.RemoveAll(r.work)
	root := r.tr.begin("bench.rep", false)
	err = w.run(r)
	r.tr.end(root)
	if err != nil {
		return nil, err
	}

	ms := r.cold
	out := &repReport{
		FirstRowUnixNS: r.firstRow.UnixNano(),
		WarmS:          r.warmTime.Seconds(),
		Tally:          r.tally,
		HaveRefs:       r.refs != nil,
		AllocMB:        float64(ms.TotalAlloc) / 1e6,
		GCCycles:       float64(ms.NumGC),
		GCPauseS:       time.Duration(ms.PauseTotalNs).Seconds(),
	}
	if traced {
		out.ProbeS = probeTime(r.tr.spans).Seconds()
		out.Layers = r.layers()
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d-rep%d.jsonl", w.name, seed, idx))
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}

// buildDir holds everything the benchmark writes, inside the checkout.
const buildDir = ".bench_build"

func newRep(w workloadDef, seed uint64, traced bool) (*rep, error) {
	refs, err := loadRefs(w.name, seed)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	r := &rep{workload: w.name, seed: seed, runSim: core.RunIncastSim, refs: refs, work: work}
	if traced {
		r.tr = newTracer(w.name)
		r.reg = obs.NewRegistry()
	}
	return r, nil
}

// recordRefs runs a workload once for seed and stores its rows as the
// seed's references. Packet seed 1 is pinned by the repository's goldens
// instead.
func recordRefs(w workloadDef, seed uint64) error {
	r, err := newRep(w, seed, false)
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.work)
	r.refs = nil
	r.warm = true
	if err := w.run(r); err != nil {
		return err
	}
	if r.tally.Wrong > 0 {
		return fmt.Errorf("not recording an inconsistent run: %v", r.tally.Notes)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d rows, %d failed\n", w.name, seed, r.tally.Attempted, r.tally.Failed)
	if w.name == "packet_quick" && seed == 1 {
		return nil
	}
	return writeRefs(w.name, seed, r.rows)
}

// layers computes a traced repetition's per-layer metrics from its spans
// and its obs registry. Metrics of layers the workload does not reach are
// left out and print as 0.
func (r *rep) layers() map[string]float64 {
	self := selfTimes(r.tr.spans)
	rows := durations(r.tr.spans, "core.RunIncastSim")
	m := map[string]float64{
		"scenario.load_s":     self["scenario.Load"].Seconds(),
		"core.compile_s":      self["core.CompileScenario"].Seconds(),
		"core.row_p50_s":      percentile(rows, 0.50).Seconds(),
		"core.row_p95_s":      percentile(rows, 0.95).Seconds(),
		"netsim.fluidpaths_s": self["netsim.FluidPaths"].Seconds(),
		"netsim.path_classes": float64(r.pathClasses),
		"sweep.get_s":         self["sweep.Get"].Seconds(),
		"sweep.put_s":         self["sweep.Put"].Seconds(),
		"sweep.hits":          float64(r.cacheHits),
		"sweep.misses":        float64(r.cacheMisses),
		"rows_drifted":        float64(r.tally.Drifted),
	}
	c, g := registryTotals(r.reg)
	if r.workload == "packet_quick" {
		// Only packet-backend runs: every obs key here comes from sim,
		// netsim, tcp and cc.
		m["sim.events"] = c["sim_events_executed"]
		if run := self["core.Experiment.Run"].Seconds(); run > 0 {
			m["sim.events_per_s"] = c["sim_events_executed"] / run
		}
		m["sim.freelist_hit_ratio"] = ratio(c["sim_freelist_hits"], c["sim_freelist_hits"]+c["sim_freelist_misses"])
		m["sim.sched_resizes"] = c["sim_sched_resizes"]
		m["netsim.pool_hit_ratio"] = ratio(c["net_pool_hits"], c["net_pool_hits"]+c["net_pool_misses"])
		m["netsim.queue_drops"] = c["net_queue_dropped_packets"]
		m["netsim.queue_marks"] = c["net_queue_marked_packets"]
		m["tcp.timeouts"] = c["tcp_timeouts"]
		m["tcp.retransmit_packets"] = c["tcp_retransmit_packets"]
		m["cc.cwnd_updates"] = c["cc_cwnd_updates"]
		return m
	}
	// Only flow-backend runs: one fluid step publishes as one executed
	// event. The solver's time is the rows' time minus the path builds,
	// which the probe spans measured on their own.
	steps := c["sim_events_executed"]
	m["flowsim.steps"] = steps
	m["flowsim.cohorts"] = g["flowsim_cohorts"]
	m["flowsim.cohort_splits"] = c["flowsim_cohort_splits"]
	m["flowsim.peak_cohort_weight"] = g["flowsim_cohort_peak_weight"]
	var solver time.Duration
	for _, d := range rows {
		solver += d
	}
	solver -= self["netsim.FluidPaths"]
	m["flowsim.ns_per_step"] = ratio(float64(solver.Nanoseconds()), steps)
	return m
}

// registryTotals folds a registry snapshot over labels: counters and sum
// gauges add up, max gauges keep the maximum.
func registryTotals(reg *obs.Registry) (counters, gauges map[string]float64) {
	counters, gauges = map[string]float64{}, map[string]float64{}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		counters[c.Name] += float64(c.Value)
	}
	for _, g := range snap.Gauges {
		if g.Mode == obs.MergeMax.String() {
			gauges[g.Name] = math.Max(gauges[g.Name], g.Value)
		} else {
			gauges[g.Name] += g.Value
		}
	}
	return counters, gauges
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of ascending durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}
