package main

import (
	"fmt"
	"runtime"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/kernelbench"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
	"chicsim/internal/workload"
)

// scaleSpec is one single-simulation workload on the 1000-site
// kernelbench.ScaleConfig grid. A run rotates over several inputs
// (configurations with distinct seeds derived from --seed): the seed
// shapes the grid, the file popularity and the users' placement, and on
// scale-place one input's cost can differ from another's by a fifth, so
// a metric of a single input would mostly measure which input --seed
// picked.
type scaleSpec struct {
	jobs   int
	es, ds string
	inputs int
}

var (
	// scalePlace is read-heavy: JobDataPresent reads the replica index
	// and the (30 s stale) GIS load for every job, and DataLeastLoaded
	// spreads replicas, so the ES+GIS decision path is the run's largest
	// cost.
	scalePlace = scaleSpec{jobs: 200_000, es: "JobDataPresent", ds: "DataLeastLoaded", inputs: 8}
	// scaleFetch is write-heavy on the same layers: random placement
	// makes most jobs fetch remotely, so transfers, engine rescheduling,
	// LRU eviction and catalog updates dominate, and the ES never reads
	// GIS load.
	scaleFetch = scaleSpec{jobs: 15_000, es: "JobRandom", ds: "DataRandom", inputs: 4}
)

// seeds returns the run's input seeds, disjoint for distinct --seed.
func (w scaleSpec) seeds(seed uint64) []uint64 {
	s := make([]uint64, w.inputs)
	for i := range s {
		s[i] = uint64(w.inputs)*seed + uint64(i) + 1
	}
	return s
}

func (w scaleSpec) config(seed uint64) core.Config {
	cfg := kernelbench.ScaleConfig(w.jobs)
	cfg.ES, cfg.DS = w.es, w.ds
	cfg.InfoStaleness = 30
	cfg.Seed = seed
	return cfg
}

// scaleRep is one timed repetition: core.New, then Simulation.Run.
type scaleRep struct {
	setup, run time.Duration
	heapMB     float64 // live heap the Simulation holds after New
	res        core.Results
	err        error
}

func runScaleRep(cfg core.Config, lr *ledgerRun) scaleRep {
	var r scaleRep
	h0 := heapAlloc()
	t0 := time.Now()
	sim, err := core.New(cfg)
	r.setup = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	r.heapMB = (heapAlloc() - h0) / 1e6
	run := func() {
		t1 := time.Now()
		r.res, r.err = sim.Run()
		r.run = time.Since(t1)
	}
	if lr == nil {
		run()
	} else if err := lr.window(run); err != nil {
		r.err = err
	}
	return r
}

// inputSamples are the untraced samples of one input.
type inputSamples struct {
	setup, nsPerJob, wall calibrated
	heap                  timing
}

// runScale repeats the workload's simulations, one input after another,
// until the budget is spent and every input has run twice, so each
// input's repetitions can be compared byte for byte. Untraced, every
// repetition is measured. Traced, each input runs untraced and then
// traced, so trace.overhead_frac compares runs that saw the same inputs
// and machine conditions.
func runScale(w scaleSpec, o options) (*report, error) {
	seeds := w.seeds(o.seed)
	rep := newReport()
	samples := make([]inputSamples, len(seeds))
	var untracedNsPerJob, tracedNsPerJob timing
	var lr *ledgerRun
	perInput := 1 // consecutive repetitions of one input
	if o.traced {
		lr, perInput = newLedgerRun(), 2
	}
	first := make([][]byte, len(seeds))
	var cal calibrator
	cal.next()
	start := time.Now()
	for i := 0; i < 2*len(seeds) || time.Since(start) < o.budget; i++ {
		in := (i / perInput) % len(seeds)
		c := w.config(seeds[in])
		var pt *placeTimer
		var rl *ledgerRun
		if o.traced && i%2 == 1 {
			pt = &placeTimer{ns: make(timing, 0, w.jobs)}
			c.Recorder, rl = pt, lr
		}
		r := runScaleRep(c, rl)
		calBefore, calAfter := cal.next()
		what := fmt.Sprintf("repetition %d (input seed %d)", i, seeds[in])
		err := checkRun(r.res, r.err, w.jobs)
		if err == nil {
			b := resultsJSON(r.res)
			if first[in] == nil {
				first[in] = b
			} else if string(b) != string(first[in]) {
				err = fmt.Errorf("results differ from the input's first repetition")
			}
		}
		rep.record(what, err)
		if r.err != nil {
			// New or Run failing is not noise: further repetitions
			// would fail the same way.
			break
		}
		perJob := float64(r.run.Nanoseconds()) / float64(w.jobs)
		if rl != nil {
			tracedNsPerJob = append(tracedNsPerJob, perJob)
			lr.placeNs = append(lr.placeNs, pt.ns...)
			lr.addResults(r.res)
			continue
		}
		untracedNsPerJob = append(untracedNsPerJob, perJob)
		s := &samples[in]
		s.setup.add(r.setup.Seconds(), calBefore, calAfter)
		s.nsPerJob.add(perJob, calBefore, calAfter)
		s.wall.add((r.setup + r.run).Seconds(), calBefore, calAfter)
		s.heap = append(s.heap, r.heapMB)
	}
	if rep.failed > 0 {
		return rep, nil
	}
	var all []byte
	for _, b := range first {
		all = append(all, b...)
	}
	rep.printf("results sha256 %s (%d inputs, seeds %v)", sha(all), len(seeds), seeds)
	if !o.traced {
		cal.report(rep)
		rep.scaleEndToEnd(seeds, samples)
		return rep, nil
	}
	setupLayers, err := measureSetupLayers(w.config(seeds[0]))
	if err != nil {
		return nil, err
	}
	rep.printf("untraced ns/job median %.6g (n=%d), traced %.6g (n=%d)",
		untracedNsPerJob.median(), len(untracedNsPerJob), tracedNsPerJob.median(), len(tracedNsPerJob))
	lr.report(rep, setupLayers, tracedNsPerJob.median()/untracedNsPerJob.median()-1, 0)
	return rep, nil
}

// scaleEndToEnd reports the end-to-end metrics of a scale workload. Each
// input's figure is the median of its normalised repetitions, which
// cancels host hiccups; setup_s, ns_per_job, heap_after_new_mb and wall_s
// are the mean over inputs, so every input weighs the same however many
// repetitions it got. A repetition is one simulation, so sim_ms_p50 and
// sim_ms_tail are the median and the upper quartile of the inputs'
// per-simulation times. The tailBeyond rule would need 21 inputs; the
// slowest of 8 scale-place inputs spread twice as much from seed to seed
// as the upper quartile, because it is mostly one input's structure.
func (r *report) scaleEndToEnd(seeds []uint64, samples []inputSamples) {
	var setup, nsPerJob, heap, wall, simMs, rawNsPerJob timing
	for i, s := range samples {
		rawNsPerJob = append(rawNsPerJob, s.nsPerJob.raw.median())
		setup = append(setup, s.setup.norm.median())
		nsPerJob = append(nsPerJob, s.nsPerJob.norm.median())
		heap = append(heap, s.heap.median())
		wall = append(wall, s.wall.norm.median())
		simMs = append(simMs, 1e3*s.wall.norm.median())
		slowest, _ := s.wall.norm.tail()
		r.printf("input seed %-4d n=%-3d setup %-9.4g s  ns/job %-9.6g  wall %-9.4g s  slowest %-9.4g s  (raw medians %.4g s, %.6g ns, %.4g s)",
			seeds[i], len(s.wall.norm), setup[i], nsPerJob[i], wall[i], slowest,
			s.setup.raw.median(), s.nsPerJob.raw.median(), s.wall.raw.median())
	}
	sorted := simMs.sorted()
	tail := sorted[len(sorted)-1-len(sorted)/4]
	r.set("setup_s", "s", setup.mean())
	r.set("ns_per_job", "ns", nsPerJob.mean())
	r.set("heap_after_new_mb", "MB", heap.mean())
	r.set("wall_s", "s", wall.mean())
	r.set("sim_ms_p50", "ms", simMs.median())
	r.set("sim_ms_tail", "ms", tail)
	r.printf("mean over %d inputs: setup_s %.6g, ns_per_job %.6g (raw %.6g), heap_after_new_mb %.6g, wall_s %.6g; per-simulation ms median %.6g, upper quartile %.6g",
		len(samples), setup.mean(), nsPerJob.mean(), rawNsPerJob.mean(), heap.mean(), wall.mean(), simMs.median(), tail)
}

// measureSetupLayers times the two set-up layers by calling them directly
// with the inputs core.New would give them.
func measureSetupLayers(cfg core.Config) (setupLayers, error) {
	var s setupLayers
	for i := 0; i < 3; i++ {
		h0 := heapAlloc()
		t0 := time.Now()
		topo, err := topology.NewHierarchical(topology.Config{
			Sites:             cfg.Sites,
			RegionFanout:      cfg.RegionFanout,
			Bandwidth:         cfg.BandwidthMBps * 1e6,
			BackboneBandwidth: cfg.BackboneMBps * 1e6,
		}, rng.New(cfg.Seed).Derive("topology"))
		s.topoS = append(s.topoS, time.Since(t0).Seconds())
		if err != nil {
			return s, err
		}
		s.topoMB = append(s.topoMB, (heapAlloc()-h0)/1e6)
		runtime.KeepAlive(topo)

		h0 = heapAlloc()
		t0 = time.Now()
		wl, err := workload.Generate(cfg.WorkloadSpec(), rng.New(cfg.Seed).Derive("workload"))
		s.wlS = append(s.wlS, time.Since(t0).Seconds())
		if err != nil {
			return s, err
		}
		s.wlMB = append(s.wlMB, (heapAlloc()-h0)/1e6)
		runtime.KeepAlive(wl)
	}
	return s, nil
}
