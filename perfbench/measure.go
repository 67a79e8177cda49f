package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runResult is the line the benchmark prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repSample is one repetition as the parent saw it.
type repSample struct {
	Traced  bool       `json:"traced"`
	WallS   float64    `json:"wall_s"`
	SetupS  float64    `json:"setup_s"`
	CPUS    float64    `json:"cpu_s"`
	RSSMB   float64    `json:"peak_rss_mb"`
	Report  *repReport `json:"report"`
	ErrText string     `json:"error,omitempty"`
}

// runRecord is written under .bench_build/runs for every run, so a noisy
// set of runs can be traced back to its repetitions and its host.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Trace    bool        `json:"trace"`
	Host     host        `json:"host"`
	Reps     []repSample `json:"reps"`
	Result   *runResult  `json:"result"`
}

// Limits that keep one run inside the three minutes a run may take.
const (
	runBudget   = 150 * time.Second
	childGOMAXP = "1"
)

// measure runs repetitions, each in a fresh process, for about seconds,
// and folds them into the run's metrics. Traced runs alternate untraced
// and traced repetitions so the tracing overhead is measured on the same
// host state.
func measure(w workloadDef, seed uint64, seconds float64, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rec := runRecord{Workload: w.name, Seed: seed, Trace: traced, Host: fingerprint()}
	fmt.Fprintf(os.Stderr, "perfbench: host %s, %d CPUs, %s, GOMAXPROCS %s per repetition, reference probe %.4f s\n",
		rec.Host.CPU, rec.Host.NumCPU, rec.Host.GoVersion, rec.Host.ChildGOMAXPROCS, rec.Host.RefS)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	// A run measures at least minReps repetitions, and starts another only
	// while the longest so far would still end within the run's seconds.
	// A traced run needs two traced repetitions to check that counts repeat.
	minReps := 3
	if traced {
		minReps = 4
	}
	var longest time.Duration
	for k := 0; ; k++ {
		tracedRep := traced && k%2 == 1
		s := spawn(ctx, exe, w.name, seed, tracedRep, traced, k)
		rec.Reps = append(rec.Reps, s)
		if s.ErrText != "" {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d rep %d traced=%v wall %.3f s setup %.4f s warm %.3f s rss %.1f MB cpu/wall %.2f rows %d failed %d drifted %d\n",
			w.name, seed, k, tracedRep, s.WallS, s.SetupS, s.Report.WarmS, s.RSSMB, s.CPUS/s.WallS,
			s.Report.Tally.Attempted, s.Report.Tally.Failed, s.Report.Tally.Drifted)
		if d := time.Duration(s.WallS * float64(time.Second)); d > longest {
			longest = d
		}
		elapsed := time.Since(start)
		if k+1 >= minReps && (elapsed+longest).Seconds() > seconds {
			break
		}
		if elapsed+2*longest > runBudget {
			break
		}
	}
	rec.Result = fold(rec.Reps, traced, rec.Host.RefS)
	if err := rec.save(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return rec.Result, nil
}

// spawn runs one repetition in a fresh process and reads its report.
func spawn(ctx context.Context, exe, workload string, seed uint64, traced, warm bool, k int) repSample {
	tr := "0"
	if traced {
		tr = "1"
	}
	// Repetitions of a traced run, untraced ones included, also serve the
	// request a second time warm (core.warm_s).
	cmd := exec.CommandContext(ctx, exe, "--child", strconv.Itoa(k), "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--trace", tr, "--warm="+strconv.FormatBool(warm))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+childGOMAXP)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	s := repSample{Traced: traced}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		s.ErrText = err.Error()
		return s
	}
	err := cmd.Wait()
	s.WallS = time.Since(t0).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		s.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.RSSMB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		s.ErrText = fmt.Sprintf("repetition %d: %v", k, err)
		return s
	}
	var rep repReport
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		s.ErrText = fmt.Sprintf("repetition %d: bad report: %v", k, err)
		return s
	}
	s.Report = &rep
	s.SetupS = time.Duration(rep.FirstRowUnixNS - t0.UnixNano()).Seconds()
	return s
}

// fold turns the repetitions into the printed result: medians of the
// timed metrics, and the row counts of one repetition. Rows are fixed by
// the seed, so every repetition must tally the same; how many repetitions
// fit in the run depends on speed, so their counts are not summed.
func fold(reps []repSample, traced bool, refS float64) *runResult {
	res := &runResult{Correct: true, Metrics: map[string]metricValue{}}
	var plain, tr []repSample
	var first *tally
	died := false
	for _, s := range reps {
		if s.Report == nil {
			// The repetition died without a report: its rows are unknown,
			// so all of them count as failed and the run as wrong.
			res.Correct = false
			died = true
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", s.ErrText)
			continue
		}
		t := s.Report.Tally
		if first == nil {
			first = &t
		} else if t.Attempted != first.Attempted || t.Failed != first.Failed ||
			t.Drifted != first.Drifted || t.Wrong != first.Wrong {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: row tally differs between repetitions: %d/%d/%d/%d vs %d/%d/%d/%d (attempted/failed/drifted/wrong)\n",
				first.Attempted, first.Failed, first.Drifted, first.Wrong, t.Attempted, t.Failed, t.Drifted, t.Wrong)
		}
		if t.Wrong > 0 {
			res.Correct = false
		}
		for _, n := range t.Notes {
			fmt.Fprintf(os.Stderr, "perfbench: note: %s\n", n)
		}
		if s.Traced {
			tr = append(tr, s)
		} else {
			plain = append(plain, s)
		}
	}
	switch {
	case first == nil:
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	case died:
		res.Attempted, res.Failed = first.Attempted, first.Attempted
	default:
		res.Attempted, res.Failed = first.Attempted, first.Failed
	}
	pick := func(ss []repSample, f func(repSample) float64) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		return median(vs)
	}
	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("perfbench: unlisted metric " + name)
	}

	if !traced {
		set(endToEnd, "wall_s", pick(plain, func(s repSample) float64 { return s.WallS }))
		set(endToEnd, "setup_s", pick(plain, func(s repSample) float64 { return s.SetupS }))
		set(endToEnd, "peak_rss_mb", pick(plain, func(s repSample) float64 { return s.RSSMB }))
		return res
	}

	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	if len(tr) > 0 {
		for name := range tr[0].Report.Layers {
			v := pick(tr, func(s repSample) float64 { return s.Report.Layers[name] })
			if unitOf(name) == "count" {
				// Counts are deterministic: every traced repetition must
				// agree exactly.
				v = tr[0].Report.Layers[name]
				for _, s := range tr[1:] {
					if s.Report.Layers[name] != v {
						res.Correct = false
						fmt.Fprintf(os.Stderr, "perfbench: count %s differs between repetitions: %v vs %v\n",
							name, v, s.Report.Layers[name])
					}
				}
			}
			set(perLayer, name, v)
		}
		set(perLayer, "trace.overhead_s",
			pick(tr, func(s repSample) float64 { return s.WallS - s.Report.ProbeS })-
				pick(plain, func(s repSample) float64 { return s.WallS }))
	}
	set(perLayer, "core.warm_s", pick(plain, func(s repSample) float64 { return s.Report.WarmS }))
	set(perLayer, "go.alloc_mb", pick(plain, func(s repSample) float64 { return s.Report.AllocMB }))
	set(perLayer, "go.gc_cycles", pick(plain, func(s repSample) float64 { return s.Report.GCCycles }))
	set(perLayer, "go.gc_pause_s", pick(plain, func(s repSample) float64 { return s.Report.GCPauseS }))
	set(perLayer, "host.ref_s", refS)
	return res
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (rec *runRecord) save() error {
	dir := filepath.Join(buildDir, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tr := 0
	if rec.Trace {
		tr = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, tr, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
