// Command perfbench is incastlab's end-to-end benchmark. It runs one
// workload for a fixed time as a series of repetitions, each in a fresh
// process with one simulation worker, verifies every row each repetition
// runs, and prints one JSON line of metrics. With --trace 1 it instead
// alternates untraced and traced repetitions and prints per-layer metrics
// measured from spans around calls into each module's public functions.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload clos_million --seed 1 --seconds 32 --trace 0
//
// README.md explains the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed; it reaches every generated spec")
		seconds = flag.Float64("seconds", 32, "how long to measure")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		child   = flag.Int("child", -1, "internal: run repetition N of the workload in this process and print its report")
		warm    = flag.Bool("warm", false, "internal: with --child, also serve the request a second time warm")
		record  = flag.String("record", "", "record reference rows for a seed range such as 1-20, then exit")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok {
		fail("unknown --workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fail("run from the repository root: %v", err)
	}
	switch {
	case *child >= 0:
		rep, err := runRep(w, *seed, *traced == 1, *warm, *child)
		if err != nil {
			fail("%s seed %d: %v", w.name, *seed, err)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(out))
	case *record != "":
		lo, hi, err := seedRange(*record)
		if err != nil {
			fail("--record: %v", err)
		}
		for s := lo; s <= hi; s++ {
			if err := recordRefs(w, s); err != nil {
				fail("record %s seed %d: %v", w.name, s, err)
			}
		}
	default:
		if *traced != 0 && *traced != 1 {
			fail("--trace must be 0 or 1")
		}
		if *seconds <= 0 {
			fail("--seconds must be positive")
		}
		res, err := measure(w, *seed, *seconds, *traced == 1)
		if err != nil {
			fail("%s seed %d: %v", w.name, *seed, err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(out))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// seedRange parses "a-b" or "a".
func seedRange(s string) (lo, hi uint64, err error) {
	a, b, found := strings.Cut(s, "-")
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, err
	}
	hi = lo
	if found {
		if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
			return 0, 0, err
		}
	}
	if lo == 0 || hi < lo {
		return 0, 0, fmt.Errorf("bad seed range %q", s)
	}
	return lo, hi, nil
}
