package core

import (
	"strconv"
	"time"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// Bucket layouts for the run-level histograms, fixed at package level so
// every run of every experiment shares one layout per metric name
// (mismatched bounds on one metric identity panic at merge time).
var (
	// cwndBuckets covers final congestion windows from one MSS (the
	// degenerate point) up through multi-megabyte windows.
	cwndBuckets = obs.ExpBuckets(float64(netsim.MSS), 2, 12)
	// alphaBuckets covers DCTCP's congestion estimate in [0, 1].
	alphaBuckets = obs.LinearBuckets(0.05, 0.05, 20)
	// bctBuckets covers burst completion times from 1 ms to ~8 s.
	bctBuckets = obs.ExpBuckets(1, 2, 14)
)

// instrument stamps the options' metrics registry, the experiment name,
// and (best-effort) the requested fidelity into a simulation config, so
// runners can thread observability through with one call.
func (o Options) instrument(experiment string, cfg SimConfig) SimConfig {
	cfg.Metrics = o.Metrics
	cfg.Experiment = experiment
	o.applyFidelity(&cfg)
	return cfg
}

// applyFidelity lowers a run to the flow-level backend when the options ask
// for it and the configuration supports it. Options.Fidelity is
// best-effort — experiments mix runs that the fluid model covers with runs
// that need packet-level machinery (ICTCP, shared buffers, waves), so
// incompatible configs silently keep the packet backend. Explicit per-run
// requests (cfg.Fidelity already set) are never overridden; those fail
// loudly inside RunIncastSim if unsupported.
func (o Options) applyFidelity(cfg *SimConfig) {
	if cfg.Fidelity == FidelityFlow {
		// Explicit flow-level run (spec- or caller-chosen): the options'
		// aggregation level still applies unless the config picked its own.
		if cfg.Aggregation == "" {
			cfg.Aggregation = o.Aggregation
		}
		return
	}
	if o.Fidelity != FidelityFlow || cfg.Fidelity != "" {
		return
	}
	if cfg.FlowCompatible() == nil {
		cfg.Fidelity = FidelityFlow
		if cfg.Aggregation == "" {
			cfg.Aggregation = o.Aggregation
		}
	}
}

// runSims stamps the options' observability into every config and fans the
// runs out. Experiment runners use it so each experiment's metrics carry
// its name without per-site boilerplate.
func (o Options) runSims(experiment string, cfgs []SimConfig) []*SimResult {
	for i := range cfgs {
		cfgs[i].Metrics = o.Metrics
		cfgs[i].Experiment = experiment
		o.applyFidelity(&cfgs[i])
	}
	return RunIncastSims(o.Workers, cfgs)
}

// harvestIncastMetrics publishes one finished simulation's telemetry into
// cfg.Metrics. Everything is read after the run from counters the
// simulation maintains anyway, so instrumented runs are bit-identical to
// uninstrumented ones; the collector merge is commutative, so snapshots
// are identical across serial and parallel schedules too.
func harvestIncastMetrics(cfg *SimConfig, eng *sim.Engine, in *workload.Incast, wallStart time.Time) {
	harvestIncastRun(cfg.Metrics, cfg.Experiment, cfg.Flows, eng, in, wallStart)
}

// harvestIncastRun is the shared harvest for any incast-over-dumbbell run,
// including experiments (cross-validation) that drive their own engine
// rather than going through RunIncastSim.
func harvestIncastRun(reg *obs.Registry, experiment string, flows int,
	eng *sim.Engine, in *workload.Incast, wallStart time.Time) {
	if reg == nil {
		return
	}
	if experiment == "" {
		experiment = "adhoc"
	}
	c := reg.Collector("experiment", experiment, "flows", strconv.Itoa(flows))
	defer c.Close()

	c.Counter("runs").Inc()
	harvestEngine(c, eng)

	net := in.Network()
	harvestQueue(c, "bottleneck", net.BottleneckQueue())
	harvestQueue(c, "uplink", net.Uplink.Queue())
	// Utilization is taken over the workload's nominal active window
	// (bursts x interval), not eng.Now(): the run deadline includes many
	// idle seconds of timeout-recovery headroom that would dilute it.
	active := sim.Time(in.Config().Bursts) * in.Config().Interval
	if now := eng.Now(); now < active {
		active = now
	}
	harvestLink(c, "bottleneck", net.Bottleneck, active)
	harvestLink(c, "uplink", net.Uplink, active)
	harvestPool(c, net.Pool)
	harvestSenders(c, in.Senders())
	harvestCohorts(c, 0, 0, 0, 0)

	bct := c.Histogram("burst_bct_ms", bctBuckets)
	for _, b := range in.Bursts() {
		bct.Observe(b.BCT.Milliseconds())
	}

	// Wall-clock duration lives in the wall_ domain: excluded from the
	// deterministic snapshot subset, summed across runs.
	if !wallStart.IsZero() {
		c.Gauge("wall_run_seconds", obs.MergeSum).Set(time.Since(wallStart).Seconds())
	}
}

// harvestEngineRun records just the engine counters and wall time, for
// experiments whose topology is not the standard incast dumbbell (rack
// contention, partition/aggregate). labels are extra base-label pairs.
func harvestEngineRun(reg *obs.Registry, experiment string, eng *sim.Engine,
	wallStart time.Time, labels ...string) {
	if reg == nil {
		return
	}
	c := reg.Collector(append([]string{"experiment", experiment}, labels...)...)
	defer c.Close()
	c.Counter("runs").Inc()
	harvestEngine(c, eng)
	if !wallStart.IsZero() {
		c.Gauge("wall_run_seconds", obs.MergeSum).Set(time.Since(wallStart).Seconds())
	}
}

// harvestEngine records the event-loop counters: totals, free-list hit
// rate, and how far virtual time advanced.
func harvestEngine(c *obs.Collector, eng *sim.Engine) {
	c.Counter("sim_events_scheduled").Add(int64(eng.Scheduled()))
	c.Counter("sim_events_executed").Add(int64(eng.Executed()))
	hits, misses := eng.FreeListStats()
	c.Counter("sim_freelist_hits").Add(int64(hits))
	c.Counter("sim_freelist_misses").Add(int64(misses))
	c.Counter("sim_time_ns").Add(int64(eng.Now()))
	// Calendar-queue internals. These counters are functions of the virtual
	// schedule alone (bucket loads and walk lengths), so they are as
	// deterministic as the event order itself. Instrumented runs always use
	// fresh engines (see simpool.go), so no state leaks in from pooling.
	st := eng.SchedulerStats()
	c.Counter("sim_sched_resizes").Add(int64(st.Resizes))
	c.Counter("sim_sched_overflow_migrations").Add(int64(st.OverflowMigrations))
	c.Counter("sim_sched_now_fastpath").Add(int64(st.NowFastPath))
}

// harvestQueue records one port's lifetime queue statistics.
func harvestQueue(c *obs.Collector, port string, q *netsim.Queue) {
	st := q.Stats()
	c.Counter("net_queue_enqueued_packets", "port", port).Add(st.EnqueuedPackets)
	c.Counter("net_queue_enqueued_bytes", "port", port).Add(st.EnqueuedBytes)
	c.Counter("net_queue_dropped_packets", "port", port).Add(st.DroppedPackets)
	c.Counter("net_queue_dropped_bytes", "port", port).Add(st.DroppedBytes)
	c.Counter("net_queue_marked_packets", "port", port).Add(st.MarkedPackets)
	c.Gauge("net_queue_peak_packets", obs.MergeMax, "port", port).Set(float64(st.PeakPackets))
	c.Gauge("net_queue_peak_bytes", obs.MergeMax, "port", port).Set(float64(st.PeakBytes))
}

// harvestLink records a link's transmit totals and its achieved
// utilization (wire bits sent over line rate x the active virtual-time
// window — a sim-time quantity, hence deterministic).
func harvestLink(c *obs.Collector, port string, l *netsim.Link, active sim.Time) {
	c.Counter("net_link_tx_packets", "port", port).Add(l.TxPackets())
	c.Counter("net_link_tx_bytes", "port", port).Add(l.TxBytes())
	if secs := active.Seconds(); secs > 0 {
		util := float64(l.TxBytes()) * 8 / (float64(l.BandwidthBps()) * secs)
		c.Gauge("net_link_utilization", obs.MergeMax, "port", port).Set(util)
	}
}

// harvestPool records the packet pool's recycling counters. Outstanding
// should be zero after a drained run; exporting it as a max-gauge makes a
// leak visible across a whole sweep.
func harvestPool(c *obs.Collector, pp *netsim.PacketPool) {
	ps := pp.Stats()
	c.Counter("net_pool_gets").Add(ps.Gets)
	c.Counter("net_pool_puts").Add(ps.Puts)
	c.Counter("net_pool_hits").Add(ps.Hits)
	c.Counter("net_pool_misses").Add(ps.Misses)
	c.Gauge("net_pool_outstanding_end", obs.MergeMax).Set(float64(pp.Outstanding()))
}

// harvestSenders records transport aggregates and the congestion-control
// end state: total window updates plus final-cwnd and final-alpha
// distributions over the flows.
func harvestSenders(c *obs.Collector, senders []*tcp.Sender) {
	var agg tcp.SenderStats
	var updates int64
	cwnd := c.Histogram("cc_final_cwnd_bytes", cwndBuckets)
	alpha := c.Histogram("cc_final_alpha", alphaBuckets)
	for _, s := range senders {
		st := s.Stats()
		agg.SentPackets += st.SentPackets
		agg.SentBytes += st.SentBytes
		agg.RetransmitPackets += st.RetransmitPackets
		agg.FastRetransmits += st.FastRetransmits
		agg.Timeouts += st.Timeouts
		agg.Acks += st.Acks
		agg.ECEAcks += st.ECEAcks
		agg.IncastNotifies += st.IncastNotifies

		alg := s.Algorithm()
		if uc, ok := alg.(cc.UpdateCounter); ok {
			updates += uc.CwndUpdates()
		}
		if insp, ok := alg.(cc.Inspectable); ok {
			p := insp.Probe()
			cwnd.Observe(float64(p.CwndBytes))
			if p.HasAlpha {
				alpha.Observe(p.Alpha)
			}
		}
	}
	c.Counter("tcp_sent_packets").Add(agg.SentPackets)
	c.Counter("tcp_sent_bytes").Add(agg.SentBytes)
	c.Counter("tcp_retransmit_packets").Add(agg.RetransmitPackets)
	c.Counter("tcp_fast_retransmits").Add(agg.FastRetransmits)
	c.Counter("tcp_timeouts").Add(agg.Timeouts)
	c.Counter("tcp_acks").Add(agg.Acks)
	c.Counter("tcp_ece_acks").Add(agg.ECEAcks)
	c.Counter("tcp_incast_notifies").Add(agg.IncastNotifies)
	c.Counter("cc_cwnd_updates").Add(updates)
}

// harvestCohorts records the flow-level backend's aggregation telemetry:
// how many cohort records the solver integrated, how many lazy exact
// splits divergence forced, the heaviest single record, and how many
// records the tail-drop victim search examined. Packet-level
// harvests publish explicit zeros (the packet backend is per-packet by
// construction), keeping the key set dense across fidelities.
func harvestCohorts(c *obs.Collector, cohorts int, splits int64, peakWeight float64, victimScans int64) {
	c.Gauge("flowsim_cohorts", obs.MergeSum).Set(float64(cohorts))
	c.Counter("flowsim_cohort_splits").Add(splits)
	c.Gauge("flowsim_cohort_peak_weight", obs.MergeMax).Set(peakWeight)
	c.Counter("flowsim_victim_scan_records").Add(victimScans)
}
