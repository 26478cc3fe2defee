package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to count as measured.
const minTail = 10

// tailPercentile returns the highest whole percentile from 99 down to 50
// that leaves at least minTail samples beyond it, with its nearest-rank
// value. ok is false when even the median has fewer than minTail samples
// beyond it.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for pct = 99; pct >= 50; pct-- {
		rank := int(math.Ceil(float64(pct) * float64(n) / 100))
		if rank >= 1 && n-rank >= minTail {
			return pct, s[rank-1], true
		}
	}
	return 0, math.NaN(), false
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample is a reading of the runtime counters the per-layer GC
// and allocation metrics are deltas of.
type runtimeSample struct {
	gcCPU, totalCPU       float64
	allocBytes, allocObjs uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		ms[i].Name = name
	}
	metrics.Read(ms)
	return runtimeSample{
		gcCPU:      ms[0].Value.Float64(),
		totalCPU:   ms[1].Value.Float64(),
		allocBytes: ms[2].Value.Uint64(),
		allocObjs:  ms[3].Value.Uint64(),
	}
}

// runtimeDelta is the runtime cost of a stretch of work: the GC's share
// of the process CPU time, and heap allocation per operation.
type runtimeDelta struct {
	GCShare      float64
	BytesPerOp   float64
	ObjectsPerOp float64
}

// plus adds the counters' growth from `from` to `to` onto a.
func (a runtimeSample) plus(from, to runtimeSample) runtimeSample {
	a.gcCPU += to.gcCPU - from.gcCPU
	a.totalCPU += to.totalCPU - from.totalCPU
	a.allocBytes += to.allocBytes - from.allocBytes
	a.allocObjs += to.allocObjs - from.allocObjs
	return a
}

func (a runtimeSample) to(b runtimeSample, ops int) runtimeDelta {
	return runtimeDelta{
		GCShare:      ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		BytesPerOp:   ratio(float64(b.allocBytes-a.allocBytes), float64(ops)),
		ObjectsPerOp: ratio(float64(b.allocObjs-a.allocObjs), float64(ops)),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
