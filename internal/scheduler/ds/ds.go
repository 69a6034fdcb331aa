// Package ds implements Dataset Scheduler (replication) policies: the
// paper's DataDoNothing, DataRandom, and DataLeastLoaded (§4), plus the
// DataCascade and DataBestClient extensions adapted from the companion
// replication study (Ranganathan & Foster, "Identifying Dynamic Replication
// Strategies for a High-Performance Data Grid", 2001 — reference [23]).
//
// A DS runs asynchronously at each site: it observes the popularity of
// locally available datasets and pushes replicas of popular ones. The
// choice of *where* distinguishes the policies.
package ds

import (
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// DoNothing performs no active replication ("DataDoNothing"): data moves
// only as a side effect of job-driven fetches, which are cached with LRU.
type DoNothing struct{}

// Name implements scheduler.Dataset.
func (DoNothing) Name() string { return "DataDoNothing" }

// Decide implements scheduler.Dataset.
func (DoNothing) Decide(scheduler.GridView, topology.SiteID, []scheduler.PopularFile) []scheduler.Replication {
	return nil
}

// Random replicates each popular dataset "to a random site on the grid"
// that does not already hold it ("DataRandom").
type Random struct {
	Src *rng.Source

	t   Targets
	out []scheduler.Replication
}

// Name implements scheduler.Dataset.
func (*Random) Name() string { return "DataRandom" }

// Decide implements scheduler.Dataset.
func (r *Random) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	out := r.out[:0]
	for _, p := range popular {
		cands := r.t.Grid(g, p.File, self)
		if len(cands) == 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: rng.Pick(r.Src, cands)})
	}
	r.out = out
	return out
}

// LeastLoaded replicates each popular dataset to "the least loaded site
// from its list of known sites (we define this as neighbors)"
// ("DataLeastLoaded"). Neighbors are the sites sharing the deciding site's
// regional parent in the hierarchy; if every neighbor already holds the
// file the policy widens to the whole grid so popularity pressure is never
// silently dropped.
type LeastLoaded struct {
	Src *rng.Source

	t   Targets
	out []scheduler.Replication
}

// Name implements scheduler.Dataset.
func (*LeastLoaded) Name() string { return "DataLeastLoaded" }

// Decide implements scheduler.Dataset.
func (l *LeastLoaded) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	out := l.out[:0]
	for _, p := range popular {
		cands := l.t.Candidates(g, p.File, self)
		if len(cands) == 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: l.t.LeastLoaded(g.Loads(), cands, l.Src)})
	}
	l.out = out
	return out
}

// Cascade replicates popular data down the hierarchy toward clients: it
// targets the least loaded *sibling* first and, once all siblings hold the
// file, stops (extension modeled on [23]'s cascading strategy, where
// replicas flow tier-by-tier rather than jumping across the grid).
type Cascade struct {
	Src *rng.Source

	t   Targets
	out []scheduler.Replication
}

// Name implements scheduler.Dataset.
func (*Cascade) Name() string { return "DataCascade" }

// Decide implements scheduler.Dataset.
func (c *Cascade) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	neighbors := g.Topology().Region(self)
	out := c.out[:0]
	for _, p := range popular {
		cands := c.t.Without(g, p.File, neighbors, self)
		if len(cands) == 0 {
			continue // tier saturated: cascading stops here
		}
		out = append(out, scheduler.Replication{File: p.File, Target: c.t.LeastLoaded(g.Loads(), cands, c.Src)})
	}
	c.out = out
	return out
}

// BestClient replicates each popular dataset to the site that generated
// the most requests for it (extension modeled on [23]'s Best Client
// strategy). Falls back to doing nothing when the best client already
// holds the file.
type BestClient struct {
	Src *rng.Source

	t   Targets
	out []scheduler.Replication
}

// Name implements scheduler.Dataset.
func (*BestClient) Name() string { return "DataBestClient" }

// Decide implements scheduler.Dataset.
func (b *BestClient) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	out := b.out[:0]
	for _, p := range popular {
		b.t.begin()
		best := topology.SiteID(-1)
		bestCount := 0
		for _, rc := range p.ByRequester { // site order for determinism
			if rc.Site != self && rc.Count > bestCount && !b.t.holds(g, p.File, rc.Site) {
				best = rc.Site
				bestCount = rc.Count
			}
		}
		if best < 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: best})
	}
	b.out = out
	return out
}

// Targets is the scratch a Dataset Scheduler owns for choosing where to
// replicate one file: the file's holder mark, the candidate list and the
// least-loaded tie set. Each file decision reads the view's replica list
// at most once, and only when the decision would have asked whether some
// site other than self holds the file — a view query can refresh a stale
// GIS snapshot, so a decision must not query where it never did. The
// slices it returns are valid until its next call. The zero value is
// ready to use.
type Targets struct {
	has    scheduler.Holders
	marked bool // has holds the current decision's file
	cands  []topology.SiteID
	ties   []topology.SiteID
}

// begin starts a new file decision.
func (t *Targets) begin() { t.marked = false }

// holds reports whether site s holds f, marking f's holders on first use
// within the decision.
func (t *Targets) holds(g scheduler.GridView, f storage.FileID, s topology.SiteID) bool {
	if !t.marked {
		t.has.Mark(g, f)
		t.marked = true
	}
	return t.has.Has(s)
}

// without appends to out the sites not holding f, excluding self.
func (t *Targets) without(g scheduler.GridView, f storage.FileID, sites []topology.SiteID, self topology.SiteID, out []topology.SiteID) []topology.SiteID {
	for _, s := range sites {
		if s != self && !t.holds(g, f, s) {
			out = append(out, s)
		}
	}
	return out
}

// grid appends to out every site not holding f, excluding self, in id
// order.
func (t *Targets) grid(g scheduler.GridView, f storage.FileID, self topology.SiteID, out []topology.SiteID) []topology.SiteID {
	for s := 0; s < g.NumSites(); s++ {
		if sid := topology.SiteID(s); sid != self && !t.holds(g, f, sid) {
			out = append(out, sid)
		}
	}
	return out
}

// Candidates returns, in deterministic order, the replication targets
// DataLeastLoaded considers for file f at site self: the siblings not yet
// holding f, widening to the whole grid when every sibling already has
// it. Empty means the file is fully replicated. Exported so
// telemetry-driven extensions can rank exactly the baseline's candidate
// set with richer scores.
func (t *Targets) Candidates(g scheduler.GridView, f storage.FileID, self topology.SiteID) []topology.SiteID {
	t.begin()
	t.cands = t.without(g, f, g.Topology().Region(self), self, t.cands[:0])
	if len(t.cands) == 0 {
		t.cands = t.grid(g, f, self, t.cands)
	}
	return t.cands
}

// Without filters sites down to those not holding f, excluding self.
func (t *Targets) Without(g scheduler.GridView, f storage.FileID, sites []topology.SiteID, self topology.SiteID) []topology.SiteID {
	t.begin()
	t.cands = t.without(g, f, sites, self, t.cands[:0])
	return t.cands
}

// Grid returns every site not holding f, excluding self, in id order.
func (t *Targets) Grid(g scheduler.GridView, f storage.FileID, self topology.SiteID) []topology.SiteID {
	t.begin()
	t.cands = t.grid(g, f, self, t.cands[:0])
	return t.cands
}

// LeastLoaded returns the candidate with the lowest loads entry, breaking
// ties uniformly at random with one draw from tie.
func (t *Targets) LeastLoaded(loads []int, cands []topology.SiteID, tie *rng.Source) topology.SiteID {
	best := append(t.ties[:0], cands[0])
	bestLoad := loads[cands[0]]
	for _, c := range cands[1:] {
		switch l := loads[c]; {
		case l < bestLoad:
			bestLoad = l
			best = append(best[:0], c)
		case l == bestLoad:
			best = append(best, c)
		}
	}
	t.ties = best
	if len(best) == 1 || tie == nil {
		return best[0]
	}
	return rng.Pick(tie, best)
}
