package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by the
// nearest-rank rule: the smallest value with at least q·n values at or below
// it. So the p99 of 10 000 samples has 100 samples beyond it.
func percentile[T int32 | int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of vs (the mean of the two middle values for an
// even count) without disturbing vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// segmentStats is what one segment of the timed phase measured.
type segmentStats struct {
	OpsPerS float64 `json:"ops_per_s"`
	P50us   float64 `json:"op_p50_us"`
	P99us   float64 `json:"op_p99_us"`
	Samples int     `json:"samples"`
}

// summarize turns per-client segment durations and per-op latencies into
// per-segment statistics. durNs[c][s] is the wall time client c spent on its
// s-th timed segment; lat[c] holds that client's latencies in op order, segOps
// per segment. A segment's throughput is the sum of its clients' rates; its
// percentiles pool the clients' samples.
func summarize(durNs [][]int64, lat [][]int32, segOps int) []segmentStats {
	out := make([]segmentStats, segments)
	pool := make([]int32, 0, segOps*len(lat))
	for s := range out {
		pool = pool[:0]
		for c := range lat {
			out[s].OpsPerS += float64(segOps) / (float64(durNs[c][s]) / 1e9)
			pool = append(pool, lat[c][s*segOps:(s+1)*segOps]...)
		}
		slices.Sort(pool)
		out[s].P50us = float64(percentile(pool, 0.50)) / 1e3
		out[s].P99us = float64(percentile(pool, 0.99)) / 1e3
		out[s].Samples = len(pool)
	}
	return out
}

func segmentMedian(segs []segmentStats, f func(segmentStats) float64) float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = f(s)
	}
	return median(vs)
}

// outliers counts the segments whose throughput is more than 15 % away from
// the median of their five-segment neighbourhood — the sign of a disturbed
// run. The neighbourhood, not the whole run, is the yardstick because a write
// workload slows steadily as its state grows, which is not a disturbance.
func outliers(segs []segmentStats) int {
	n := 0
	for i, s := range segs {
		lo := max(0, min(i-2, len(segs)-5))
		med := segmentMedian(segs[lo:min(lo+5, len(segs))], func(s segmentStats) float64 { return s.OpsPerS })
		if d := s.OpsPerS/med - 1; d > 0.15 || d < -0.15 {
			n++
		}
	}
	return n
}

// usage is the process-wide resource reading taken at both ends of the timed
// phase.
type usage struct {
	cpuNs    int64 // user + system
	invol    int64 // involuntary context switches
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
	steal    cpuTimes
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		invol:    ru.Nivcsw,
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
		steal:    readCPUTimes(),
	}
}

// cpuTimes is the first line of /proc/stat: the machine's jiffies, all of
// them and those the hypervisor gave to somebody else.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{} // not Linux: steal is reported as 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	var ct cpuTimes
	for i, fld := range strings.Fields(sc.Text()) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseUint(fld, 10, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			ct.total += v
		}
		if i == 8 {
			ct.steal = v
		}
	}
	return ct
}

func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// heapLiveMB forces a collection and returns what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters flattens a registry snapshot to name → value, summing over label
// sets (shards, logs); a histogram contributes name.sum and name.count.
func counters(r *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, p := range r.Snapshot() {
		switch p.Kind {
		case obs.KindHistogram:
			out[p.Name+".sum"] += p.Sum
			out[p.Name+".count"] += float64(p.Count)
		case obs.KindCounter:
			out[p.Name] += p.Value
		}
	}
	return out
}

// delta returns after − before for every name of after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
