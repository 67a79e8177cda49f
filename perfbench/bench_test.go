package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"incastlab/internal/core"
	"incastlab/internal/sim"
)

// The workloads read the repository's files by their paths from its root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// fakeReps is a traced run's worth of repetitions, enough for fold to
// print every metric.
func fakeReps() []repSample {
	layers := map[string]float64{}
	for _, d := range perLayer {
		layers[d.name] = 1
	}
	r := &repReport{Tally: tally{Attempted: 1}, Layers: layers}
	return []repSample{{WallS: 2, Report: r}, {Traced: true, WallS: 3, Report: r}}
}

func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("workloads: code %s, BENCHMARK.json %s", got, want)
	}

	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, traced := range []bool{false, true} {
		got := fold(fakeReps(), traced, 0.1).Metrics
		if len(got) != len(want[traced]) {
			t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json lists %d", traced, len(got), len(want[traced]))
		}
		for name, v := range got {
			if unit, ok := want[traced][name]; !ok || unit != v.Unit {
				t.Errorf("trace=%v: printed %s [%s], BENCHMARK.json has [%s] (listed %v)", traced, name, v.Unit, unit, ok)
			}
		}
	}
}

// The printed row counts are one repetition's, whatever number of
// repetitions fit in the run.
func TestRowCountsNotSummedOverRepetitions(t *testing.T) {
	rep := func(failed int) repSample {
		return repSample{WallS: 1, Report: &repReport{Tally: tally{Attempted: 10, Failed: failed}}}
	}
	for _, c := range []struct {
		name            string
		reps            []repSample
		correct         bool
		attempted, fail int
	}{
		{"one", []repSample{rep(2)}, true, 10, 2},
		{"five", []repSample{rep(2), rep(2), rep(2), rep(2), rep(2)}, true, 10, 2},
		{"tallies differ", []repSample{rep(2), rep(3)}, false, 10, 2},
		{"died", []repSample{rep(2), {ErrText: "killed"}}, false, 10, 10},
		{"none", []repSample{{ErrText: "killed"}}, false, 1, 1},
	} {
		res := fold(c.reps, false, 0.1)
		if res.Correct != c.correct || res.Attempted != c.attempted || res.Failed != c.fail {
			t.Errorf("%s: correct %v attempted %d failed %d, want %v %d %d",
				c.name, res.Correct, res.Attempted, res.Failed, c.correct, c.attempted, c.fail)
		}
	}
}

func TestPerturbedReferenceRejected(t *testing.T) {
	ref := "2 15.832 15.848 0.13029"
	for _, c := range []struct {
		got     string
		drifted int
		wrong   int
	}{
		{ref, 0, 0},
		{"2 16.5 15.848 0.13029", 1, 0},   // mean +4%: within 15%
		{"3 15.832 15.848 0.13029", 0, 1}, // mode flip
		{"2 18.5 15.848 0.13029", 0, 1},   // mean +17%
		{"2 15.832 20.1 0.13029", 0, 1},   // max +27%
		{"2 15.832 15.848 0.24", 0, 1},    // peak queue +11% of capacity
	} {
		var tl tally
		tl.check(0, "row", c.got, []string{ref}, compareOutcome)
		if tl.Drifted != c.drifted || tl.Wrong != c.wrong || tl.Failed != c.wrong {
			t.Errorf("%q vs %q: drifted %d wrong %d failed %d, want %d %d %d",
				c.got, ref, tl.Drifted, tl.Wrong, tl.Failed, c.drifted, c.wrong, c.wrong)
		}
	}

	var tl tally
	grid := gridComparator(1333)
	tl.check(0, "grid", "76.304 167.7 149.9 15.840 3 0 0.9794", []string{"76.304 167.7 149.9 15.840 0 0 0.9794"}, grid)
	if tl.Wrong != 1 {
		t.Errorf("grid row that newly times out was not rejected")
	}

	// A real run against a perturbed recorded reference: packet rows are
	// pinned byte for byte.
	w, _ := lookupWorkload("packet_quick")
	r, err := newRep(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(r.work)
	for _, e := range packetExperiments {
		g, err := os.ReadFile(goldenDir + "/" + e.csv)
		if err != nil {
			t.Fatal(err)
		}
		r.refs = append(r.refs, csvRows(g)...)
	}
	r.refs[1] = strings.Replace(r.refs[1], "466.7", "466.8", 1)
	if err := w.run(r); err != nil {
		t.Fatal(err)
	}
	if r.tally.Wrong != 1 || r.tally.Failed != 1 || r.tally.Attempted != 7 {
		t.Errorf("perturbed packet reference: %+v, want 1 wrong and failed row of 7", r.tally)
	}
}

func TestForcedRowPanicCountedAsFailed(t *testing.T) {
	w, _ := lookupWorkload("dumbbell_flow")
	r, err := newRep(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(r.work)
	panics := 0
	r.runSim = func(cfg core.SimConfig) *core.SimResult {
		if cfg.Flows == 1000 {
			panics++
			panic("forced row failure")
		}
		// A stand-in result far from every reference row's mode 1 or 2.
		return &core.SimResult{Timeouts: 1, MeanBCT: sim.Second, MaxBCT: sim.Second, QueueCapacity: 1}
	}
	if err := w.run(r); err != nil {
		t.Fatal(err)
	}
	if panics == 0 || r.tally.Attempted != 1004 {
		t.Fatalf("attempted %d rows with %d panics", r.tally.Attempted, panics)
	}
	failed := 0
	for _, line := range r.rows {
		if line == failedRow {
			failed++
		}
	}
	if failed != panics {
		t.Errorf("%d rows recorded as failed, want %d", failed, panics)
	}
	if r.tally.Failed < failed {
		t.Errorf("tally counts %d failed rows, fewer than the %d that panicked", r.tally.Failed, failed)
	}
}

func TestSeedReachesGeneratedSpecs(t *testing.T) {
	const seed = 1234567
	for _, path := range []string{"examples/scenarios/clos_million_flow_single.json",
		"examples/scenarios/clos_million_flow_grid.json", "examples/scenarios/fanin_scaling_flow.json"} {
		r := &rep{seed: seed}
		spec, err := r.load(path)
		if err != nil {
			t.Fatal(err)
		}
		_, cfgs, err := r.compile(core.Options{Seed: r.seed, Workers: 1}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if cfg.Seed != seed || (cfg.Clos != nil && cfg.Clos.ECMPSeed != seed) {
				t.Fatalf("%s row %d: seed %d, want %d everywhere", path, i, cfg.Seed, seed)
			}
		}
	}

	// No references are recorded for this seed, so only completion counts.
	refs, err := loadRefs("dumbbell_flow", seed)
	if err != nil || refs != nil {
		t.Fatalf("refs for an unrecorded seed: %v, %v", refs, err)
	}
	var tl tally
	tl.check(0, "row", "1 1 1 0.1", refs, compareOutcome)
	tl.check(1, "row", failedRow, refs, compareOutcome)
	if tl.Attempted != 2 || tl.Failed != 1 || tl.Wrong != 0 {
		t.Errorf("unrecorded seed: %+v, want 2 attempted, 1 failed, none wrong", tl)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("a", false)
	tr.do("b", true, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	self := selfTimes(tr.spans)
	if self["a"] < 0 || self["b"] < 2*time.Millisecond || self["a"]+self["b"] != tr.spans[0].dur() {
		t.Errorf("self times %v do not partition the root span %v", self, tr.spans[0].dur())
	}
	if probeTime(tr.spans) != tr.spans[1].dur() {
		t.Errorf("probe time %v, want the probe span's %v", probeTime(tr.spans), tr.spans[1].dur())
	}
}
