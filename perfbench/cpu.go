package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on may be a virtual machine whose vCPUs the
// hypervisor hands to other guests for a while ("steal" time in
// /proc/stat). A stolen interval stretches every wall-clock figure without
// the program doing anything differently, so the benchmark charges its
// whole-interval throughput figures (set-ups, training repetitions and the
// probe's goodput seconds) only for the CPU time the host actually gave
// (see charge). Latencies are never rescaled. On an unshared host the
// share is 1 and figures are plain wall clock; the report prints the
// shares.

// cpuSample is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuSample struct{ run, steal uint64 }

func readCPU() cpuSample {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}
	}
	var v [9]uint64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseUint(f[i], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuSample{run: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// runShare is the fraction of runnable CPU time between a and b that the
// host did not steal; 1 when no run time was counted (an interval shorter
// than a clock tick) or /proc/stat is unavailable.
func runShare(a, b cpuSample) float64 {
	if b.run <= a.run || b.steal < a.steal {
		return 1
	}
	r, s := float64(b.run-a.run), float64(b.steal-a.steal)
	return r / (r + s)
}

// charge returns the seconds a throughput figure is charged for an
// interval of secs wall seconds with the given run share, when the
// interval's work is split statically over parts goroutines that wait for
// each other at every step (1 when the tensor pool balances the work). The
// run share counts stolen time spread over all vCPUs, but a stall on one
// vCPU holds such a step back for the whole stolen time, so the interval
// is charged secs·share^parts, about secs·(1 - parts·stolen fraction).
// On a 2-vCPU KVM guest (Xeon, Sapphire Rapids) whose steal came and went:
// over three 10-minute series of zero2 repetitions (2 replicas) the
// IQR/median of 4-repetition medians was 0.170, 0.075 and 0.117 charged
// secs·share and 0.123, 0.044 and 0.067 charged secs·share²; over a
// 6-minute b1 series (shares 0.85–1.00) the repetitions' CV was 0.066
// charged secs·share and 0.224 charged secs·share².
func charge(secs, share float64, parts int) float64 {
	return secs * math.Pow(share, float64(parts))
}

// interval times one measured interval with its run share.
type interval struct {
	start time.Time
	cpu   cpuSample
}

func startInterval() interval { return interval{time.Now(), readCPU()} }

// stop returns the raw wall time and the run share of the interval.
func (iv interval) stop() (time.Duration, float64) {
	return time.Since(iv.start), runShare(iv.cpu, readCPU())
}
