package feedback

import (
	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/topology"
)

// ES is the adaptive External Scheduler ("JobFeedback"). It ranks the same
// data-holding candidates JobDataPresent would consider, but scores them
// with the tracker's staleness-discounted load blend, dispatch-pressure
// correction, and decaying fault penalties; with SpreadSeconds > 0 it can
// divert jobs off swamped holders to sites where fetching the data is
// cheaper than queueing behind it. With zero-valued Params (or no tracker)
// it is byte-identical to JobDataPresent, including RNG consumption.
type ES struct {
	Src           *rng.Source
	AvgComputeSec float64 // assumed mean compute time of a queued job
	CEsPerSite    float64 // assumed processors per site
	Tracker       *Tracker
	Params        Params

	fetch []float64 // per site: divert's input fetch estimate
	has   scheduler.Holders
}

// Name implements scheduler.External.
func (*ES) Name() string { return "JobFeedback" }

// Place implements scheduler.External.
func (e *ES) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	cands := es.DataPresentCandidates(g, j)
	loads := g.Loads()
	best := e.rank(loads, cands)
	if e.Params.SpreadSeconds > 0 && e.Tracker.Ready() {
		if alt, ok := e.divert(g, loads, j, best); ok {
			return alt
		}
	}
	return best
}

// effLoad is the telemetry-blended queue estimate for site s. With
// QueueWeight zero it is exactly float64(loads[s]) — the conversion of an
// int queue length is lossless, so score comparisons and tie sets match
// the static baseline's integer comparisons bit for bit.
func (e *ES) effLoad(loads []int, s topology.SiteID) float64 {
	load := float64(loads[s])
	if w := e.Params.QueueWeight; w > 0 && e.Tracker.Ready() {
		d := e.Tracker.StalenessDiscount()
		load = (1-w*d)*load + w*d*e.Tracker.PredictedLoad(s) + w*e.Tracker.Pressure(s)
	}
	return load
}

// score ranks candidate sites: blended load plus fault penalty, in
// equivalent queued jobs.
func (e *ES) score(loads []int, s topology.SiteID) float64 {
	sc := e.effLoad(loads, s)
	if e.Params.FaultWeight > 0 {
		sc += e.Params.FaultWeight * e.Tracker.FaultPenalty(s)
	}
	return sc
}

// rank picks the lowest-scoring candidate, collecting exact ties in
// candidate order and breaking them with one rng.Pick draw — the same
// structure (and therefore the same stream consumption) as the static
// policies' least-loaded selection.
func (e *ES) rank(loads []int, cands []topology.SiteID) topology.SiteID {
	best := cands[:1]
	bestScore := e.score(loads, cands[0])
	for _, c := range cands[1:] {
		sc := e.score(loads, c)
		switch {
		case sc < bestScore:
			bestScore = sc
			best = []topology.SiteID{c}
		case sc == bestScore:
			best = append(best, c)
		}
	}
	if len(best) == 1 || e.Src == nil {
		return best[0]
	}
	return rng.Pick(e.Src, best)
}

// divert decides whether to move job j off the chosen data holder. Only
// when the holder's estimated queue wait exceeds SpreadSeconds does it
// cost out every site — max(queue wait, congestion-penalized fetch time)
// plus fault penalty — and it diverts only when the cheapest alternative
// wins by more than SpreadSeconds (hysteresis). The search is a
// deterministic first-wins argmin: no extra RNG draws, so seeds stay
// comparable across SpreadSeconds settings.
func (e *ES) divert(g scheduler.GridView, loads []int, j *job.Job, holder topology.SiteID) (topology.SiteID, bool) {
	if e.queueSeconds(g, loads, holder) <= e.Params.SpreadSeconds {
		return 0, false
	}
	e.fetchAll(g, j)
	holderCost := e.siteCost(g, loads, holder)
	bestCost := holderCost
	best := holder
	for s := 0; s < g.NumSites(); s++ {
		sid := topology.SiteID(s)
		if sid == holder {
			continue
		}
		if c := e.siteCost(g, loads, sid); c < bestCost {
			bestCost = c
			best = sid
		}
	}
	if best != holder && bestCost+e.Params.SpreadSeconds < holderCost {
		return best, true
	}
	return 0, false
}

// queueSeconds estimates how long site s's current queue takes to drain.
func (e *ES) queueSeconds(g scheduler.GridView, loads []int, s topology.SiteID) float64 {
	ces := e.CEsPerSite
	if c := g.CEs(s); c > 0 {
		ces = float64(c)
	}
	if ces <= 0 {
		ces = 1
	}
	return e.effLoad(loads, s) * e.AvgComputeSec / ces
}

// fetchAll estimates, for every site, the time to fetch job j's missing
// inputs there: each from its cheapest congestion-penalized replica, the
// slowest input bounding the whole (inputs fetch in parallel).
func (e *ES) fetchAll(g scheduler.GridView, j *job.Job) {
	n := g.NumSites()
	if cap(e.fetch) < n {
		e.fetch = make([]float64, n)
	}
	e.fetch = e.fetch[:n]
	clear(e.fetch)
	for _, f := range j.Inputs {
		reps, size := e.has.Mark(g, f), g.FileSize(f)
		if len(reps) == 0 {
			continue
		}
		for si := range e.fetch {
			s := topology.SiteID(si)
			if e.has.Has(s) {
				continue
			}
			best := -1.0
			for _, r := range reps {
				t := g.PredictTransfer(r, s, size)
				if e.Params.CongestionWeight > 0 {
					t += e.Params.CongestionWeight * e.Tracker.RouteBacklogSeconds(r, s)
				}
				if best < 0 || t < best {
					best = t
				}
			}
			if best > e.fetch[si] {
				e.fetch[si] = best
			}
		}
	}
}

// siteCost estimates the job's wait at site s: the larger of queue drain
// and input fetch time (fetches overlap queueing; fetchAll must have run
// for the job), plus the fault penalty expressed in seconds.
func (e *ES) siteCost(g scheduler.GridView, loads []int, s topology.SiteID) float64 {
	fetch := e.fetch[s]
	cost := e.queueSeconds(g, loads, s)
	if fetch > cost {
		cost = fetch
	}
	if e.Params.FaultWeight > 0 {
		ces := e.CEsPerSite
		if ces <= 0 {
			ces = 1
		}
		cost += e.Params.FaultWeight * e.Tracker.FaultPenalty(s) * e.AvgComputeSec / ces
	}
	return cost
}
