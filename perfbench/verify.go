package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"incastlab/internal/core"
	"incastlab/internal/flowsim"
)

// Tolerances of TestCohortDifferentialGate (internal/audit/cohortdiff.go):
// a fluid row whose outcome moved but stays inside them has drifted; one
// outside them is wrong.
const (
	meanBCTTol   = 0.15
	maxBCTTol    = 0.25
	peakQueueTol = 0.10
)

// failedRow is the reference line of a row that did not complete.
const failedRow = "fail"

// verdict classifies a row that is not equal to its reference.
type verdict int

const (
	drifted verdict = iota
	wrong
)

// comparator judges a row's line against a different reference line;
// neither is failedRow.
type comparator func(got, ref string) (verdict, string)

// tally counts rows and how they compared.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Drifted   int      `json:"drifted"`
	Wrong     int      `json:"wrong"`
	Notes     []string `json:"notes,omitempty"`
}

func (t *tally) note(format string, args ...any) {
	if len(t.Notes) < 20 {
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}
}

// check records one row. got is failedRow when the row panicked. refs is
// nil for a seed without recorded references: then only completion counts.
// A row outside tolerance counts as failed as well as wrong.
func (t *tally) check(i int, key, got string, refs []string, cmp comparator) {
	t.Attempted++
	if got == failedRow {
		t.Failed++
		return
	}
	if refs == nil {
		return
	}
	if i >= len(refs) {
		t.Wrong++
		t.Failed++
		t.note("%s: no reference row %d", key, i)
		return
	}
	ref := refs[i]
	if ref == failedRow {
		t.note("%s: completes, but the reference recorded a failure", key)
		return
	}
	if got == ref {
		return
	}
	switch v, why := cmp(got, ref); v {
	case drifted:
		t.Drifted++
	case wrong:
		t.Wrong++
		t.Failed++
		t.note("%s: %s (got %q, want %q)", key, why, got, ref)
	}
}

// outcomeLine renders the verified part of a RunIncastSim result: mode,
// mean and max burst completion time (ms), and peak queue as a fraction of
// capacity, at five significant digits.
func outcomeLine(res *core.SimResult) string {
	mode := flowsim.Classify(res.Timeouts, res.FracBelowK)
	peak := 0.0
	if res.QueueCapacity > 0 {
		peak = res.MaxQueue / float64(res.QueueCapacity)
	}
	return fmt.Sprintf("%c %.5g %.5g %.5g", mode[0], res.MeanBCT.Milliseconds(), res.MaxBCT.Milliseconds(), peak)
}

// compareOutcome applies the cohort gate's contract to two outcome lines.
func compareOutcome(got, ref string) (verdict, string) {
	g, gerr := parseFloats(got, 1)
	r, rerr := parseFloats(ref, 1)
	switch {
	case gerr != nil || rerr != nil || len(g) != 3 || len(r) != 3:
		return wrong, "malformed outcome"
	case got[0] != ref[0]:
		return wrong, "mode differs"
	case relDiff(g[0], r[0]) > meanBCTTol:
		return wrong, "mean BCT outside 15%"
	case relDiff(g[1], r[1]) > maxBCTTol:
		return wrong, "max BCT outside 25%"
	case math.Abs(g[2]-r[2]) > peakQueueTol:
		return wrong, "peak queue outside 10% of capacity"
	}
	return drifted, ""
}

// gridComparator checks a cached grid row (the seven rendered cells of
// core's scenario table). The cells carry no max BCT or below-K fraction,
// so the mode check is reduced to "timed out or not".
func gridComparator(capacity float64) comparator {
	return func(got, ref string) (verdict, string) {
		g, gerr := parseFloats(got, 0)
		r, rerr := parseFloats(ref, 0)
		switch {
		case gerr != nil || rerr != nil || len(g) != 7 || len(r) != 7:
			return wrong, "malformed cells"
		case (g[4] > 0) != (r[4] > 0):
			return wrong, "timeout mode differs"
		case relDiff(g[3], r[3]) > meanBCTTol:
			return wrong, "mean BCT outside 15%"
		case math.Abs(g[1]-r[1])/capacity > peakQueueTol:
			return wrong, "peak queue outside 10% of capacity"
		}
		return drifted, ""
	}
}

// exactOnly is the comparator for byte-pinned packet rows.
func exactOnly(got, ref string) (verdict, string) { return wrong, "row differs" }

func parseFloats(line string, skip int) ([]float64, error) {
	fields := strings.Fields(line)
	if len(fields) < skip {
		return nil, fmt.Errorf("short line")
	}
	out := make([]float64, 0, len(fields)-skip)
	for _, f := range fields[skip:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// refPath is where the benchmark keeps a workload's recorded reference
// rows for one seed.
func refPath(workload string, seed uint64) string {
	return filepath.Join("perfbench", "refs", workload, strconv.FormatUint(seed, 10)+".txt")
}

// loadRefs reads the recorded rows for a seed; nil when none are recorded.
func loadRefs(workload string, seed uint64) ([]string, error) {
	f, err := os.Open(refPath(workload, seed))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	refs := []string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		refs = append(refs, sc.Text())
	}
	return refs, sc.Err()
}

// writeRefs records a workload's rows for a seed.
func writeRefs(workload string, seed uint64, rows []string) error {
	path := refPath(workload, seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644)
}
