package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// host fingerprints the machine a run measured on.
type host struct {
	CPU             string `json:"cpu"`
	NumCPU          int    `json:"nproc"`
	GoVersion       string `json:"go_version"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	ChildGOMAXPROCS string `json:"child_gomaxprocs"`
	// RefS is the median time of a fixed CPU and memory probe. It is not
	// gated; it lets a slow set of runs be traced back to host drift.
	RefS float64 `json:"ref_s"`
}

func fingerprint() host {
	return host{
		CPU:             cpuModel(),
		NumCPU:          runtime.NumCPU(),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ChildGOMAXPROCS: childGOMAXP,
		RefS:            refProbe(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// refProbe times filling a map of 2^20 slots from a fixed pseudo-random
// key stream five times and returns the median, in seconds. Of the probes
// tried (sort, pointer chase, map, float loop), map inserts tracked the
// solver's slow repetitions most closely on a shared 2-vCPU cloud VM.
func refProbe() float64 {
	times := make([]float64, 5)
	for i := range times {
		x := uint64(88172645463325252)
		m := make(map[uint64]uint64)
		t := time.Now()
		for j := 0; j < 1<<18; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x&(1<<20-1)] += uint64(j)
		}
		times[i] = time.Since(t).Seconds()
	}
	return median(times)
}
