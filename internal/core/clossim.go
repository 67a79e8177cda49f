package core

import (
	"fmt"
	"strconv"
	"time"

	"incastlab/internal/audit"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// runClosIncastSim is the packet-level incast runner over a leaf/spine
// fabric: the same burst schedule and measurement harness as the dumbbell
// path, with the aggregator's leaf downlink as the bottleneck under study.
// cfg.fill() has already applied defaults.
func runClosIncastSim(cfg SimConfig) *SimResult {
	var wallStart time.Time
	if cfg.Metrics != nil {
		wallStart = time.Now()
	}
	reuse := cfg.Metrics == nil
	res0 := acquireSimResources(reuse)
	eng := res0.eng

	wrapNotificationAlg(&cfg)
	closCfg := *cfg.Clos
	wl := workload.ClosIncastConfig{
		Workers:        cfg.Flows,
		Placement:      cfg.Placement,
		Aggregators:    cfg.Aggregators,
		BytesPerFlow:   workload.BytesPerFlowFor(closCfg.HostLinkBps, cfg.BurstDuration, cfg.Flows),
		Bursts:         cfg.Bursts,
		Interval:       cfg.Interval,
		JitterMax:      cfg.JitterMax,
		Seed:           cfg.Seed,
		SenderConfig:   cfg.Sender,
		ReceiverConfig: cfg.Receiver,
		Admitter:       cfg.Admitter,
	}
	in := workload.NewClosIncastWithPool(eng, closCfg, wl, cfg.Alg, res0.pool)
	if cfg.EnableICTCP {
		ctrl := tcp.NewICTCP(eng, tcp.DefaultICTCPConfig(closCfg.HostLinkBps, closCfg.BaseRTT(true)))
		for _, r := range in.Receivers() {
			ctrl.Manage(r)
		}
	}
	if cfg.ExternalBufferBytes > 0 {
		shared := in.Network().Shared[0]
		if shared == nil {
			panic("core: ExternalBufferBytes requires a shared-buffer topology")
		}
		shared.SetExternalBytes(cfg.ExternalBufferBytes)
	}

	var auditor *audit.Auditor
	if cfg.Audit {
		auditor = audit.New(eng, audit.Config{RequireDrained: true})
		auditor.WatchClos(in.Network())
		for _, s := range in.Senders() {
			auditor.WatchSender(s)
		}
		auditor.Start()
	}

	res := &SimResult{
		Flows:         cfg.Flows,
		AlgName:       in.Senders()[0].Algorithm().Name(),
		Fidelity:      FidelityPacket,
		QueueCapacity: closCfg.QueueCapacityPackets,
		ECNThreshold:  closCfg.ECNThresholdPackets,
	}

	// The bottleneck under study is the aggregator's leaf downlink port.
	probe := newBurstProbe(&cfg, eng, in.Network().DownlinkQueue(0),
		in.AggregateSenderStats)
	probe.watchDetector(attachClosNotification(&cfg, in.Network()))

	if cfg.TrackInFlight {
		res.InFlight = workload.SampleInFlight(eng, in.Senders(),
			probe.lastBurstStart(), cfg.SampleInterval, probe.samplesPerBurst)
	}

	deadline := sim.Time(cfg.Bursts)*cfg.Interval + 10*sim.Second
	eng.RunUntil(deadline)
	if !in.Done() {
		panic(fmt.Sprintf("core: clos simulation with %d workers did not complete by %v",
			cfg.Flows, deadline))
	}
	if auditor != nil {
		auditor.Finish()
		if err := auditor.Err(); err != nil {
			panic(fmt.Sprintf("core: %d-worker clos simulation failed its invariant audit: %v",
				cfg.Flows, err))
		}
	}

	probe.finish(res, in.Bursts(), in.AggregateSenderStats())

	harvestClosIncastMetrics(&cfg, eng, in, wallStart)
	res.Events = eng.Executed()
	res.SimNow = eng.Now()
	releaseSimResources(res0, reuse)
	return res
}

// harvestClosIncastMetrics publishes a finished fabric run's telemetry:
// engine counters, the aggregator's bottleneck port, its leaf's spine
// uplinks (where ECMP collisions appear), pool, senders, and the BCT
// histogram — mirroring harvestIncastRun for the dumbbell.
func harvestClosIncastMetrics(cfg *SimConfig, eng *sim.Engine, in *workload.ClosIncast,
	wallStart time.Time) {
	reg := cfg.Metrics
	if reg == nil {
		return
	}
	experiment := cfg.Experiment
	if experiment == "" {
		experiment = "adhoc"
	}
	placement := in.Config().Placement
	if placement == "" {
		placement = workload.PlacementCrossRack
	}
	c := reg.Collector("experiment", experiment,
		"flows", strconv.Itoa(cfg.Flows), "placement", placement)
	defer c.Close()

	c.Counter("runs").Inc()
	harvestEngine(c, eng)

	net := in.Network()
	bottleneck := net.Downlink(0)
	harvestQueue(c, "bottleneck", bottleneck.Queue())
	active := sim.Time(in.Config().Bursts) * in.Config().Interval
	if now := eng.Now(); now < active {
		active = now
	}
	harvestLink(c, "bottleneck", bottleneck, active)
	// The fabric convergence points: each spine's downlink into the
	// aggregator's rack, where ECMP collisions appear as queueing.
	for s := 0; s < net.Config.Spines; s++ {
		down := net.SpineDownlink(s, 0)
		port := "spine-" + strconv.Itoa(s) + "-in"
		harvestQueue(c, port, down.Queue())
		harvestLink(c, port, down, active)
	}
	harvestPool(c, net.Pool)
	harvestSenders(c, in.Senders())
	harvestCohorts(c, 0, 0, 0, 0)

	bct := c.Histogram("burst_bct_ms", bctBuckets)
	for _, b := range in.Bursts() {
		bct.Observe(b.BCT.Milliseconds())
	}

	if !wallStart.IsZero() {
		c.Gauge("wall_run_seconds", obs.MergeSum).Set(time.Since(wallStart).Seconds())
	}
}
