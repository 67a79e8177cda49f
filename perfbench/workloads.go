package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"incastlab/internal/core"
	"incastlab/internal/obs"
	"incastlab/internal/scenario"
	"incastlab/internal/sweep"
	"incastlab/internal/workload"
)

// A workload is one set of inputs the benchmark runs. Why each was chosen,
// and which layer it is meant to exercise or bypass, is in README.md.
type workloadDef struct {
	name string
	run  func(r *rep) error
}

var workloads = []workloadDef{
	{"clos_million", runClosMillion},
	{"clos_grid", runClosGrid},
	{"dumbbell_flow", runDumbbellFlow},
	{"packet_quick", runPacketQuick},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// goldenDir holds the byte-pinned quick-mode packet CSVs (seed 1).
const goldenDir = "internal/core/testdata/quick"

// rep is one repetition of a workload in a fresh process.
type rep struct {
	workload string
	seed     uint64
	// tr and reg are set on traced repetitions only.
	tr  *tracer
	reg *obs.Registry
	// runSim runs one row; tests substitute a panicking one.
	runSim func(core.SimConfig) *core.SimResult
	// refs are the recorded reference rows for seed (nil if none).
	refs []string
	// work is a scratch directory this repetition owns.
	work string

	// warm asks for the warm pass: the same request again in this
	// process, timed as core.warm_s.
	warm bool

	tally    tally
	rows     []string
	firstRow time.Time
	warmTime time.Duration
	// cold holds the Go runtime totals at the end of the cold pass.
	cold runtime.MemStats

	// Layer observations the spans and the registry cannot give.
	pathClasses int
	cacheHits   int
	cacheMisses int
}

// startRows marks the end of set-up: everything before it (process start,
// package init, spec load, compile, cache open) is setup_s.
func (r *rep) startRows() { r.firstRow = time.Now() }

// wrong marks the repetition's output as incorrect.
func (r *rep) wrong(format string, args ...any) {
	r.tally.Wrong++
	r.tally.note(format, args...)
}

func (r *rep) load(path string) (spec scenario.Spec, err error) {
	r.tr.do("scenario.Load", false, func() { spec, err = scenario.Load(path) })
	return spec, err
}

func (r *rep) compile(opt core.Options, spec scenario.Spec) (labels [][]string, cfgs []core.SimConfig, err error) {
	r.tr.do("core.CompileScenario", false, func() { _, labels, cfgs, err = core.CompileScenario(opt, spec) })
	return labels, cfgs, err
}

// runRow runs one row, turning a panic into failedRow.
func (r *rep) runRow(cfg core.SimConfig) (line string) {
	defer func() {
		if p := recover(); p != nil {
			line = failedRow
			r.tally.note("row panicked: %v", firstLine(fmt.Sprint(p)))
		}
	}()
	return outcomeLine(r.runSim(cfg))
}

// fluidRows runs rows one by one through core.RunIncastSim. On traced
// repetitions each Clos row's endpoint and path build is also timed on its
// own, as a probe, so the solver's share of the row can be separated.
func (r *rep) fluidRows(experiment string, cfgs []core.SimConfig) []string {
	lines := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		if r.tr != nil && cfg.Clos != nil {
			r.tr.do("netsim.FluidPaths", true, func() { r.pathClasses += fluidPathClasses(cfg) })
		}
		cfg.Metrics = r.reg
		cfg.Experiment = experiment
		id := r.tr.begin("core.RunIncastSim", false)
		lines[i] = r.runRow(cfg)
		r.tr.end(id)
	}
	return lines
}

// fluidPathClasses builds a Clos row's flow endpoints and fluid paths the
// way the flow backend does, and returns the number of path classes.
func fluidPathClasses(cfg core.SimConfig) int {
	srcs, dsts, err := workload.ClosFlowEndpoints(*cfg.Clos, cfg.Flows, cfg.Aggregators, cfg.Placement)
	if err != nil {
		return 0
	}
	paths, err := cfg.Clos.FluidPaths(srcs, dsts)
	if err != nil {
		return 0
	}
	_, n := paths.PathClasses()
	return n
}

// checkRows verifies a pass against the references, row by row.
func (r *rep) checkRows(keys []string, lines []string, cmp comparator) {
	if r.refs != nil && len(r.refs) != len(lines) {
		r.wrong("%d rows, but %d reference rows", len(lines), len(r.refs))
	}
	for i, line := range lines {
		r.tally.check(i, keys[i], line, r.refs, cmp)
	}
	r.rows = append(r.rows, lines...)
}

// checkWarm requires the warm pass to reproduce the cold pass exactly.
func (r *rep) checkWarm(cold, warm []string) {
	for i := range cold {
		if i >= len(warm) || warm[i] != cold[i] {
			r.wrong("warm pass row %d differs from the cold pass", i)
			return
		}
	}
}

func rowKeys(prefix string, labels [][]string) []string {
	keys := make([]string, len(labels))
	for i, l := range labels {
		keys[i] = prefix + "/" + strings.Join(l, "/")
	}
	return keys
}

// runClosMillion: one 2^20-flow cohort row on the Clos fabric, then the
// same row again in the warm process.
func runClosMillion(r *rep) error {
	spec, err := r.load("examples/scenarios/clos_million_flow_single.json")
	if err != nil {
		return err
	}
	opt := core.Options{Seed: r.seed, Workers: 1}
	labels, cfgs, err := r.compile(opt, spec)
	if err != nil {
		return err
	}
	r.startRows()
	cold := r.fluidRows(spec.Name, cfgs)
	r.checkRows(rowKeys(spec.Name, labels), cold, compareOutcome)

	r.warmPass(func() { r.checkWarm(cold, r.fluidRows(spec.Name, cfgs)) })
	return nil
}

// warmPass ends the cold pass, then times fn as the warm rerun, untraced,
// when the repetition asks for one.
func (r *rep) warmPass(fn func()) {
	runtime.ReadMemStats(&r.cold)
	if !r.warm {
		return
	}
	tr, reg := r.tr, r.reg
	r.tr, r.reg = nil, nil
	t := time.Now()
	fn()
	r.warmTime = time.Since(t)
	r.tr, r.reg = tr, reg
}

// runDumbbellFlow: the two dumbbell flow-fidelity scenarios at their
// shipped burst counts, row by row, then all rows again warm.
func runDumbbellFlow(r *rep) error {
	opt := core.Options{Seed: r.seed, Workers: 1}
	type part struct {
		name   string
		labels [][]string
		cfgs   []core.SimConfig
	}
	var parts []part
	for _, path := range []string{"examples/scenarios/fanin_rto_grid_flow.json", "examples/scenarios/fanin_scaling_flow.json"} {
		spec, err := r.load(path)
		if err != nil {
			return err
		}
		labels, cfgs, err := r.compile(opt, spec)
		if err != nil {
			return err
		}
		parts = append(parts, part{spec.Name, labels, cfgs})
	}
	r.startRows()
	var cold, keys []string
	for _, p := range parts {
		cold = append(cold, r.fluidRows(p.name, p.cfgs)...)
		keys = append(keys, rowKeys(p.name, p.labels)...)
	}
	r.checkRows(keys, cold, compareOutcome)

	r.warmPass(func() {
		var warm []string
		for _, p := range parts {
			warm = append(warm, r.fluidRows(p.name, p.cfgs)...)
		}
		r.checkWarm(cold, warm)
	})
	return nil
}

// runClosGrid: the 208-row grid cold through the sharded row cache into a
// fresh cache directory, then reassembled warm from that cache. Traced
// repetitions also replay every row on its own (row percentiles, solver
// cost) and time the cache's Get and Put on the real keys and cells.
func runClosGrid(r *rep) error {
	spec, err := r.load("examples/scenarios/clos_million_flow_grid.json")
	if err != nil {
		return err
	}
	opt := core.Options{Seed: r.seed, Workers: 1}
	labels, cfgs, err := r.compile(opt, spec)
	if err != nil {
		return err
	}
	var cache *sweep.Cache
	r.tr.do("sweep.Open", false, func() { cache, err = sweep.Open(filepath.Join(r.work, "cache")) })
	if err != nil {
		return err
	}
	r.startRows()

	keys := rowKeys(spec.Name, labels)
	cold, coldCSV, stats := r.cachedPass(opt, spec, cache, len(cfgs))
	capacity := float64(cfgs[0].Clos.QueueCapacityPackets)
	r.checkRows(keys, cold, gridComparator(capacity))
	if coldCSV != nil && stats.Computed != len(cfgs) {
		r.wrong("cold pass computed %d of %d rows", stats.Computed, len(cfgs))
	}
	r.cacheMisses += stats.Computed

	r.warmPass(func() {
		warm, warmCSV, stats := r.cachedPass(opt, spec, cache, len(cfgs))
		r.checkWarm(cold, warm)
		if coldCSV != nil && !bytes.Equal(warmCSV, coldCSV) {
			r.wrong("warm reassembly is not byte-identical to the cold table")
		}
		if stats.Hits != len(cfgs) {
			r.wrong("warm pass hit %d of %d rows", stats.Hits, len(cfgs))
		}
		r.cacheHits += stats.Hits
	})

	if r.tr != nil {
		// The cold pass already published this grid's counts; the replay
		// only adds spans.
		reg := r.reg
		r.reg = nil
		r.tr.do("bench.replay", true, func() { r.fluidRows(spec.Name, cfgs) })
		r.reg = reg
		if err := r.cacheProbe(opt, spec, cache, len(cfgs)); err != nil {
			return err
		}
	}
	return nil
}

// cachedPass runs core.RunScenarioCached once and returns the rows' result
// cells (label columns stripped, one line per row) and the CSV bytes. A
// panic fails every row of the pass.
func (r *rep) cachedPass(opt core.Options, spec scenario.Spec, cache *sweep.Cache, rows int) (lines []string, csv []byte, stats core.CacheStats) {
	opt.Metrics = r.reg
	lines = make([]string, rows)
	for i := range lines {
		lines[i] = failedRow
	}
	defer func() {
		if p := recover(); p != nil {
			r.tally.note("cached pass panicked: %v", firstLine(fmt.Sprint(p)))
		}
	}()
	var res *core.TableResult
	var err error
	r.tr.do("core.RunScenarioCached", false, func() { res, stats, err = core.RunScenarioCached(opt, spec, cache, core.Shard{}) })
	if err != nil || res == nil {
		r.tally.note("cached pass: %v", err)
		return lines, nil, stats
	}
	t := res.Table()
	for i, row := range t.Rows {
		if i < rows {
			lines[i] = strings.Join(row[len(t.Header)-7:], " ")
		}
	}
	var b bytes.Buffer
	if err := t.WriteCSV(&b); err != nil {
		return lines, nil, stats
	}
	return lines, b.Bytes(), stats
}

// cacheProbe times sweep.Cache.Get on every row key of the warm cache and
// sweep.Cache.Put of the same cells into a second, empty cache.
func (r *rep) cacheProbe(opt core.Options, spec scenario.Spec, cache *sweep.Cache, rows int) error {
	dst, err := sweep.Open(filepath.Join(r.work, "cache-probe"))
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		key := core.ScenarioRowKey(opt, spec, i)
		var cells []string
		var ok bool
		r.tr.do("sweep.Get", true, func() { cells, ok, err = cache.Get(key) })
		if err != nil || !ok {
			return fmt.Errorf("cache probe: row %d: ok=%v err=%v", i, ok, err)
		}
		r.tr.do("sweep.Put", true, func() { err = dst.Put(key, cells) })
		if err != nil {
			return err
		}
	}
	return nil
}

// packetExperiments are the registry experiments packet_quick runs, with
// the summary CSV each is verified by.
var packetExperiments = []struct{ name, csv string }{
	{"fig5", "fig5_modes.csv"},
	{"ext_clos_crossrack", "ext_clos_crossrack.csv"},
}

// runPacketQuick: fig5 and ext_clos_crossrack from the registry at packet
// fidelity in quick mode, written out as a user would, then again warm.
// At seed 1 the header and every data line must equal the repository's
// quick goldens, so the files match byte for byte.
func runPacketQuick(r *rep) error {
	opt := core.Options{Seed: r.seed, Quick: true, Workers: 1}
	var golden [][]byte
	for _, e := range packetExperiments {
		b, err := os.ReadFile(filepath.Join(goldenDir, e.csv))
		if err != nil {
			return err
		}
		golden = append(golden, b)
	}
	if r.seed == 1 && r.refs == nil {
		for _, g := range golden {
			r.refs = append(r.refs, csvRows(g)...)
		}
	}
	r.startRows()
	cold, coldFiles := r.packetPass(opt, golden, "cold")
	var keys []string
	for i, e := range packetExperiments {
		for j := range csvRows(golden[i]) {
			keys = append(keys, fmt.Sprintf("%s/row%d", e.csv, j))
		}
		// The data lines are checked row by row below; the header here.
		if r.seed == 1 && coldFiles[i] != nil && csvHeader(coldFiles[i]) != csvHeader(golden[i]) {
			r.wrong("%s header differs from %s", e.csv, filepath.Join(goldenDir, e.csv))
		}
	}
	r.checkRows(keys, cold, exactOnly)

	r.warmPass(func() {
		warm, _ := r.packetPass(opt, golden, "warm")
		r.checkWarm(cold, warm)
	})
	return nil
}

// packetPass runs each packet experiment, writes its artifacts, and reads
// back the summary CSV. A panic fails every row of that experiment.
func (r *rep) packetPass(opt core.Options, golden [][]byte, pass string) (lines []string, files [][]byte) {
	opt.Metrics = r.reg
	for i, e := range packetExperiments {
		want := len(csvRows(golden[i]))
		b, err := r.packetExperiment(opt, e.name, e.csv, filepath.Join(r.work, pass))
		rows := csvRows(b)
		if err != nil || len(rows) != want {
			r.tally.note("%s: %d rows, err %v", e.name, len(rows), err)
			rows = make([]string, want)
			for j := range rows {
				rows[j] = failedRow
			}
			b = nil
		}
		lines = append(lines, rows...)
		files = append(files, b)
	}
	return lines, files
}

func (r *rep) packetExperiment(opt core.Options, name, csv, dir string) (b []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", firstLine(fmt.Sprint(p)))
		}
	}()
	e, ok := core.LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("no registry experiment %q", name)
	}
	var res core.Result
	r.tr.do("core.Experiment.Run", false, func() { res = e.Run(opt) })
	if err := res.WriteFiles(dir); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, csv))
}

// csvRows splits a CSV file into its data lines (header dropped).
func csvRows(b []byte) []string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) <= 1 {
		return nil
	}
	return lines[1:]
}

// csvHeader is a CSV file's first line.
func csvHeader(b []byte) string { return firstLine(string(b)) }

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
