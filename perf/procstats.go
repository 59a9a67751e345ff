package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is a point-in-time sample of process-wide counters: CPU time
// from getrusage and the runtime's allocation and GC counters.
type procSnap struct {
	CPU        time.Duration // user + system
	Allocs     uint64        // heap objects allocated, cumulative
	AllocBytes uint64        // heap bytes allocated, cumulative
	GCCPU      float64       // estimated GC CPU seconds, cumulative
	TotalCPU   float64       // runtime's estimate of all CPU seconds, cumulative
	GCCycles   uint64
	Pauses     *metrics.Float64Histogram // GC stop-the-world pause latencies, cumulative
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSnap {
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	p := procSnap{CPU: cpuTime()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.Allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		p.AllocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		p.GCCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		p.TotalCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindUint64 {
		p.GCCycles = s[4].Value.Uint64()
	}
	if s[5].Value.Kind() == metrics.KindFloat64Histogram {
		p.Pauses = s[5].Value.Float64Histogram()
	}
	return p
}

// procDelta is the difference of two procSnaps over one phase.
type procDelta struct {
	CPU        time.Duration
	Allocs     uint64
	AllocBytes uint64
	GCCPUFrac  float64
	GCCycles   uint64
	PauseP99   time.Duration
}

func (b procSnap) since(a procSnap) procDelta {
	d := procDelta{
		CPU:        b.CPU - a.CPU,
		Allocs:     b.Allocs - a.Allocs,
		AllocBytes: b.AllocBytes - a.AllocBytes,
		GCCycles:   b.GCCycles - a.GCCycles,
		GCCPUFrac:  ratio(b.GCCPU-a.GCCPU, b.TotalCPU-a.TotalCPU),
	}
	if a.Pauses != nil && b.Pauses != nil && len(a.Pauses.Counts) == len(b.Pauses.Counts) {
		d.PauseP99 = histDeltaPercentile(a.Pauses, b.Pauses, 99)
	}
	return d
}

// histDeltaPercentile returns percentile p of the observations added to a
// runtime/metrics histogram between snapshots a and b, as the upper bound
// of the bucket holding it (the lower bound for the open last bucket).
func histDeltaPercentile(a, b *metrics.Float64Histogram, p float64) time.Duration {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(rankOf(p, int(total))) + 1
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			hi := b.Buckets[i+1]
			if hi > 1e9 { // +Inf
				hi = b.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
