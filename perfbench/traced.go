package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/trace"
)

// Runtime counters read around each traced window.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// heapAlloc returns the bytes of live heap objects after a full GC.
func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// placeTimer is a Recorder that times the External Scheduler's decision:
// core records JobSubmitted right before the ES places a job and
// JobDispatched right after, so the wall time between the two calls for
// one job is es.Place plus the GIS reads it triggers.
type placeTimer struct {
	job   int
	start time.Time
	ns    timing
}

func (p *placeTimer) Record(e trace.Event) {
	switch e.Kind {
	case trace.JobSubmitted:
		p.job, p.start = e.Job, time.Now()
	case trace.JobDispatched:
		if e.Job == p.job {
			p.ns = append(p.ns, float64(time.Since(p.start)))
		}
	}
}

// ledgerRun accumulates everything the traced repetitions measure.
type ledgerRun struct {
	cpu     *ledger
	rt      []float64 // runtime counter deltas, as runtimeSamples
	placeNs timing
	res     core.Results // counters summed over traced simulations
	dataMB  float64      // Σ AvgDataPerJobMB × JobsDone
}

func newLedgerRun() *ledgerRun {
	return &ledgerRun{cpu: newLedger(), rt: make([]float64, len(runtimeSamples))}
}

// window runs f under the CPU profiler and the runtime counters.
func (l *ledgerRun) window(f func()) error {
	var buf bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	after := readRuntime()
	for i := range l.rt {
		l.rt[i] += after[i] - before[i]
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return err
	}
	l.cpu.add(p)
	return nil
}

// addResults sums the counters of one traced simulation.
func (l *ledgerRun) addResults(r core.Results) {
	s := &l.res
	s.JobsDone += r.JobsDone
	s.FetchCount += r.FetchCount
	s.ReplCount += r.ReplCount
	s.OutputCount += r.OutputCount
	s.Evictions += r.Evictions
	s.Replications += r.Replications
	s.SimEvents += r.SimEvents
	s.CacheHits += r.CacheHits
	s.CacheMisses += r.CacheMisses
	l.dataMB += r.AvgDataPerJobMB * float64(r.JobsDone)
}

// setupLayers holds the direct measurements of the set-up layers.
type setupLayers struct {
	topoS, topoMB, wlS, wlMB timing
}

// report writes the per-layer metrics. overhead is traced ÷ untraced − 1
// of the workload's headline time; idleShare is the campaign workers'
// idle share (0 for single-simulation workloads).
func (l *ledgerRun) report(r *report, setup setupLayers, overhead, idleShare float64) {
	jobs := float64(max(l.res.JobsDone, 1))
	perJob := func(n float64) float64 { return n / jobs }

	r.set("topology.build_s", "s", setup.topoS.median())
	r.set("topology.heap_mb", "MB", setup.topoMB.median())
	r.set("workload.generate_s", "s", setup.wlS.median())
	r.set("workload.heap_mb", "MB", setup.wlMB.median())

	tail, label := l.placeNs.tail()
	r.set("es.place_ns_p50", "ns", l.placeNs.median())
	r.set("es.place_ns_tail", "ns", tail)
	var placeSum float64
	for _, ns := range l.placeNs {
		placeSum += ns
	}
	r.set("es.place_ns_per_job", "ns", perJob(placeSum))
	if len(l.placeNs) > 0 {
		r.printf("es.place_ns            median %-12.6g %s=%-12.6g n=%d  [ns]", l.placeNs.median(), label, tail, len(l.placeNs))
	} else {
		r.printf("es.place_ns            not measured (no per-job Recorder on this workload)")
	}

	res := l.res
	r.set("catalog.writes_per_job", "count", perJob(float64(res.FetchCount+res.ReplCount+res.Evictions)))
	r.set("ds.replications_per_job", "count", perJob(float64(res.Replications)))
	r.set("netsim.transfers_per_job", "count", perJob(float64(res.FetchCount+res.ReplCount+res.OutputCount)))
	r.set("netsim.mb_per_job", "MB", perJob(l.dataMB))
	r.set("desim.events_per_job", "count", perJob(float64(res.SimEvents)))
	if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
		r.set("site.cache_hit_ratio", "frac", float64(res.CacheHits)/float64(lookups))
	} else {
		r.set("site.cache_hit_ratio", "frac", 0)
	}
	r.set("storage.evictions_per_job", "count", perJob(float64(res.Evictions)))
	r.set("experiments.worker_idle_share", "frac", idleShare)

	for _, layer := range layers {
		r.set(layer+".self_share", "frac", l.cpu.share(layer))
	}
	for _, layer := range inclusiveLayers {
		r.set(layer+".inclusive_share", "frac", l.cpu.inclusiveShare(layer))
	}
	busy := l.rt[1] - l.rt[2]
	if busy > 0 {
		r.set("runtime.gc_cpu_share", "frac", l.rt[0]/busy)
	} else {
		r.set("runtime.gc_cpu_share", "frac", 0)
	}
	r.set("runtime.alloc_bytes_per_job", "B", perJob(l.rt[3]))
	r.set("runtime.mallocs_per_job", "count", perJob(l.rt[4]))
	r.set("trace.overhead_frac", "frac", overhead)
	r.set("trace.cpu_s", "s", float64(l.cpu.cpuNs)/1e9)
	r.set("trace.jobs", "count", float64(l.res.JobsDone))

	r.printf("ledger base: %d CPU-profile samples = %.3f CPU-s over %d jobs", l.cpu.total, float64(l.cpu.cpuNs)/1e9, l.res.JobsDone)
	for _, layer := range layers {
		r.printf("  %-13s %6.2f%%", layer, 100*l.cpu.share(layer))
	}
	for _, layer := range inclusiveLayers {
		r.printf("  %-13s %6.2f%% inclusive (any frame on the stack)", layer, 100*l.cpu.inclusiveShare(layer))
	}
	if pkgs := l.cpu.unmappedPackages(); len(pkgs) > 0 {
		r.printf("  unattributed packages: %v", pkgs)
	}
}
