package es

import (
	"chicsim/internal/job"
	"chicsim/internal/scheduler"
	"chicsim/internal/topology"
)

// ect estimates the completion time of job j at site s, following the
// paper's own cost model: max(queue delay, input transfer) + compute. The
// queue delay estimate is (waiting jobs + extra assignments already made
// this batch) × avgCompute / CEs; the transfer estimate is the predicted
// time to pull the slowest missing input from its closest replica.
type ect struct {
	g          scheduler.GridView
	avgCompute float64
	loads      []int     // the view's load vector, read once per batch
	extra      []float64 // work (seconds) assigned to each site this batch
	transfer   []float64 // per site: the prepared job's transfer estimate
	has        scheduler.Holders
}

func newECT(g scheduler.GridView, avgCompute float64) *ect {
	n := g.NumSites()
	return &ect{g: g, avgCompute: avgCompute, loads: g.Loads(),
		extra: make([]float64, n), transfer: make([]float64, n)}
}

// prepare computes job j's transfer estimate at every site; estimate then
// reads it for j.
func (e *ect) prepare(j *job.Job) { inputTransfer(e.g, j, &e.has, e.transfer) }

// estimate returns the prepared job j's completion time at site s.
func (e *ect) estimate(j *job.Job, s topology.SiteID) float64 {
	ces := e.g.CEs(s)
	if ces <= 0 {
		ces = 1
	}
	queue := (float64(e.loads[s])*e.avgCompute + e.extra[s]) / float64(ces)
	wait := queue
	if e.transfer[s] > wait {
		wait = e.transfer[s]
	}
	return wait + j.ComputeTime
}

func (e *ect) commit(j *job.Job, s topology.SiteID) {
	e.extra[s] += j.ComputeTime
}

// bestSite returns the site minimizing the prepared job's ECT (lowest id
// on ties, for determinism).
func (e *ect) bestSite(j *job.Job) (topology.SiteID, float64) {
	best := topology.SiteID(0)
	bestECT := e.estimate(j, 0)
	for s := 1; s < e.g.NumSites(); s++ {
		sid := topology.SiteID(s)
		if v := e.estimate(j, sid); v < bestECT {
			best, bestECT = sid, v
		}
	}
	return best, bestECT
}

// batchAssign runs the generic Min-Min/Max-Min/Sufferage loop: repeatedly
// compute each unassigned job's best (and second-best, for Sufferage)
// completion time, pick a job by the policy's criterion, assign it, and
// update the load estimates.
//
// pick receives (bestECT, sufferage) per remaining job and returns the
// index to schedule next.
func batchAssign(g scheduler.GridView, jobs []*job.Job, avgCompute float64,
	pick func(best, sufferage []float64) int) []topology.SiteID {

	out := make([]topology.SiteID, len(jobs))
	if len(jobs) == 0 {
		return out // no decision, so no view query
	}
	e := newECT(g, avgCompute)
	remaining := make([]int, len(jobs)) // indices into jobs
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		best := make([]float64, len(remaining))
		suffer := make([]float64, len(remaining))
		sites := make([]topology.SiteID, len(remaining))
		for k, idx := range remaining {
			j := jobs[idx]
			e.prepare(j)
			s, v := e.bestSite(j)
			sites[k], best[k] = s, v
			// Second-best ECT for the sufferage criterion.
			second := -1.0
			for c := 0; c < g.NumSites(); c++ {
				sid := topology.SiteID(c)
				if sid == s {
					continue
				}
				if v2 := e.estimate(j, sid); second < 0 || v2 < second {
					second = v2
				}
			}
			if second < 0 {
				second = best[k]
			}
			suffer[k] = second - best[k]
		}
		k := pick(best, suffer)
		idx := remaining[k]
		out[idx] = sites[k]
		e.commit(jobs[idx], sites[k])
		remaining = append(remaining[:k], remaining[k+1:]...)
	}
	return out
}

// BatchMinMin implements the Min-Min heuristic: schedule the job with the
// smallest best completion time first, so short jobs pack tightly.
type BatchMinMin struct{ AvgComputeSec float64 }

// Name implements scheduler.Batch.
func (BatchMinMin) Name() string { return "BatchMinMin" }

// Assign implements scheduler.Batch.
func (b BatchMinMin) Assign(g scheduler.GridView, jobs []*job.Job) []topology.SiteID {
	return batchAssign(g, jobs, b.AvgComputeSec, func(best, _ []float64) int {
		k := 0
		for i := 1; i < len(best); i++ {
			if best[i] < best[k] {
				k = i
			}
		}
		return k
	})
}

// BatchMaxMin implements the Max-Min heuristic: schedule the job with the
// largest best completion time first, so long jobs claim resources early.
type BatchMaxMin struct{ AvgComputeSec float64 }

// Name implements scheduler.Batch.
func (BatchMaxMin) Name() string { return "BatchMaxMin" }

// Assign implements scheduler.Batch.
func (b BatchMaxMin) Assign(g scheduler.GridView, jobs []*job.Job) []topology.SiteID {
	return batchAssign(g, jobs, b.AvgComputeSec, func(best, _ []float64) int {
		k := 0
		for i := 1; i < len(best); i++ {
			if best[i] > best[k] {
				k = i
			}
		}
		return k
	})
}

// BatchSufferage implements the Sufferage heuristic (Casanova et al.,
// AppLeS): schedule the job that would suffer most from losing its best
// site — the largest gap between best and second-best completion times.
type BatchSufferage struct{ AvgComputeSec float64 }

// Name implements scheduler.Batch.
func (BatchSufferage) Name() string { return "BatchSufferage" }

// Assign implements scheduler.Batch.
func (b BatchSufferage) Assign(g scheduler.GridView, jobs []*job.Job) []topology.SiteID {
	return batchAssign(g, jobs, b.AvgComputeSec, func(_, suffer []float64) int {
		k := 0
		for i := 1; i < len(suffer); i++ {
			if suffer[i] > suffer[k] {
				k = i
			}
		}
		return k
	})
}
