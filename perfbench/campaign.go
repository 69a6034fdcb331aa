package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
)

const (
	// campaignWorkers is fixed so the workload means the same on every
	// machine; one worker keeps per-simulation times free of contention
	// between the campaign's own simulations.
	campaignWorkers = 1
	// campaignObsInterval is the probe interval gridsweep uses by default.
	campaignObsInterval = 60
)

type simKey struct {
	cell experiments.Cell
	seed uint64
}

// campaign returns the paper's 72-simulation campaign with three seeds
// derived from seed; observed attaches the probes, one shared registry
// and the watchdog, as a researcher's gridsweep run does.
func campaign(seed uint64, observed bool) experiments.Campaign {
	c := experiments.FullPaperCampaign(core.DefaultConfig())
	c.Seeds = []uint64{3*seed + 1, 3*seed + 2, 3*seed + 3}
	c.Workers = campaignWorkers
	if observed {
		c.ObsInterval = campaignObsInterval
		c.Metrics = registry.New()
		c.Watchdog = watchdog.Warn
	}
	return c
}

// cellConfig is the configuration experiments.Run gives one simulation.
func cellConfig(c experiments.Campaign, k simKey) core.Config {
	cfg := c.Base
	cfg.ES, cfg.DS, cfg.BandwidthMBps, cfg.Seed = k.cell.ES, k.cell.DS, k.cell.BandwidthMBps, k.seed
	return cfg
}

// campaignRep is one timed run of the whole campaign.
type campaignRep struct {
	wall time.Duration
	sims timing // per-simulation host ms, OnRunStart → OnRunDone
	res  map[simKey]core.Results
	errs map[simKey]error
}

func runCampaignRep(c experiments.Campaign, lr *ledgerRun) (campaignRep, error) {
	r := campaignRep{res: map[simKey]core.Results{}, errs: map[simKey]error{}}
	var mu sync.Mutex
	starts := map[simKey]time.Time{}
	c.OnRunStart = func(cell experiments.Cell, seed uint64) {
		mu.Lock()
		starts[simKey{cell, seed}] = time.Now()
		mu.Unlock()
	}
	c.OnRunDone = func(cell experiments.Cell, seed uint64, err error) {
		k := simKey{cell, seed}
		mu.Lock()
		r.sims = append(r.sims, float64(time.Since(starts[k]).Nanoseconds())/1e6)
		mu.Unlock()
		if err != nil {
			r.errs[k] = err
		}
	}
	var cells []experiments.CellResult
	run := func() {
		t0 := time.Now()
		cells = experiments.Run(c)
		r.wall = time.Since(t0)
	}
	if lr == nil {
		run()
	} else if err := lr.window(run); err != nil {
		return r, err
	}
	for _, cr := range cells {
		for _, res := range cr.Runs {
			r.res[simKey{cr.Cell, res.Seed}] = res
		}
	}
	return r, nil
}

// check applies the per-simulation checks to every simulation of a rep:
// each must pass checkRun, match the unobserved reference run apart from
// the observers' own engine ticks, and repeat the first observed rep byte
// for byte.
func (r campaignRep) check(c experiments.Campaign, t *tally, ref, first map[simKey][]byte) {
	for _, cell := range c.Cells {
		for _, seed := range c.Seeds {
			k := simKey{cell, seed}
			what := fmt.Sprintf("%v seed %d", cell, seed)
			res, ok := r.res[k]
			err := r.errs[k]
			if err == nil && !ok {
				err = fmt.Errorf("no result")
			}
			if err == nil {
				err = checkRun(res, nil, c.Base.TotalJobs)
			}
			if err == nil && ref != nil {
				if res.WatchdogViolations != 0 {
					err = fmt.Errorf("%d watchdog violations", res.WatchdogViolations)
				} else if string(unobservedJSON(res)) != string(ref[k]) {
					err = fmt.Errorf("observers changed the results")
				}
			}
			if err == nil && first != nil {
				if b := resultsJSON(res); first[k] == nil {
					first[k] = b
				} else if string(b) != string(first[k]) {
					err = fmt.Errorf("results differ from the first repetition")
				}
			}
			t.record(what, err)
		}
	}
}

// runCampaign measures the observed campaign. An unobserved run of the
// same cells comes first, outside the budget: it is the reference the
// observed runs must not perturb.
func runCampaign(o options) (*report, error) {
	rep := newReport()
	bare := campaign(o.seed, false)
	bareRep, err := runCampaignRep(bare, nil)
	if err != nil {
		return nil, err
	}
	bareRep.check(bare, &rep.tally, nil, nil)
	ref := map[simKey][]byte{}
	for k, res := range bareRep.res {
		ref[k] = unobservedJSON(res)
	}
	rep.printf("unobserved campaign wall %.4g s (reference run, not a metric)", bareRep.wall.Seconds())

	heap, err := simHeap(cellConfig(bare, simKey{bare.Cells[0], bare.Seeds[0]}))
	if err != nil {
		return nil, err
	}

	var setup, wall, nsPerJob, sims, simTail calibrated
	var idle, tracedWall timing
	var lr *ledgerRun
	minReps := 3
	if o.traced {
		lr, minReps = newLedgerRun(), 4
	}
	first := map[simKey][]byte{}
	var cal calibrator
	cal.next()
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < o.budget; i++ {
		c := campaign(o.seed, true)
		var rl *ledgerRun
		if o.traced && i%2 == 1 {
			rl = lr
		}
		r, err := runCampaignRep(c, rl)
		if err != nil {
			return nil, err
		}
		calBefore, calAfter := cal.next()
		r.check(c, &rep.tally, ref, first)
		if rl != nil {
			tracedWall = append(tracedWall, r.wall.Seconds())
			for _, res := range r.res {
				lr.addResults(res)
			}
			continue
		}
		// Set-up samples are spread over the run like the other timings,
		// one pass over the campaign's configurations per repetition.
		news, err := timeNew(bare)
		if err != nil {
			return nil, err
		}
		for _, v := range news {
			setup.add(v, calBefore, calAfter)
		}
		var simSum float64
		jobs := 0
		for _, res := range r.res {
			jobs += res.JobsDone
		}
		for _, ms := range r.sims {
			simSum += ms
			sims.add(ms, calBefore, calAfter)
		}
		wall.add(r.wall.Seconds(), calBefore, calAfter)
		nsPerJob.add(simSum*1e6/float64(max(jobs, 1)), calBefore, calAfter)
		tail, _ := r.sims.tail()
		simTail.add(tail, calBefore, calAfter)
		busy := float64(campaignWorkers) * r.wall.Seconds()
		idle = append(idle, (busy-simSum/1e3)/busy)
	}
	if len(first) > 0 {
		var all []byte
		for _, cell := range bare.Cells {
			for _, seed := range bare.Seeds {
				all = append(all, first[simKey{cell, seed}]...)
			}
		}
		rep.printf("results sha256 %s (72 observed simulations, campaign order)", sha(all))
	}
	if !o.traced {
		cal.report(rep)
		// The tail is taken within each campaign, whose 72 simulations
		// are distinct inputs (a pooled tail would be the slowest one or
		// two inputs repeated), and its median over campaigns reported.
		rep.setTiming("sim_ms_tail", "ms", simTail)
		rep.endToEnd(setup, nsPerJob, heap, wall, sims, simTail.norm.median())
		return rep, nil
	}
	setupLayers, err := measureSetupLayers(cellConfig(bare, simKey{bare.Cells[0], bare.Seeds[0]}))
	if err != nil {
		return nil, err
	}
	rep.printf("untraced wall median %.6g s (n=%d), traced %.6g s (n=%d)",
		wall.raw.median(), len(wall.raw), tracedWall.median(), len(tracedWall))
	lr.report(rep, setupLayers, tracedWall.median()/wall.raw.median()-1, idle.median())
	return rep, nil
}

// timeNew returns the wall time of core.New for every simulation of the
// campaign.
func timeNew(c experiments.Campaign) (timing, error) {
	var setup timing
	for _, cell := range c.Cells {
		for _, seed := range c.Seeds {
			t0 := time.Now()
			_, err := core.New(cellConfig(c, simKey{cell, seed}))
			setup = append(setup, time.Since(t0).Seconds())
			if err != nil {
				return nil, err
			}
		}
	}
	return setup, nil
}

// simHeap measures the live heap one Simulation holds after New.
func simHeap(cfg core.Config) (timing, error) {
	var heap timing
	for i := 0; i < 3; i++ {
		h0 := heapAlloc()
		sim, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		heap = append(heap, (heapAlloc()-h0)/1e6)
		runtime.KeepAlive(sim)
	}
	return heap, nil
}
