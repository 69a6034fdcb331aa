package ds

import (
	"slices"
	"testing"

	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/schedtest"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// refWithout is the per-site HasReplica filter the holder mark replaced.
func refWithout(g scheduler.GridView, f storage.FileID, sites []topology.SiteID, self topology.SiteID) []topology.SiteID {
	var out []topology.SiteID
	for _, s := range sites {
		if s != self && !g.HasReplica(f, s) {
			out = append(out, s)
		}
	}
	return out
}

func allSites(n int) []topology.SiteID {
	out := make([]topology.SiteID, n)
	for i := range out {
		out[i] = topology.SiteID(i)
	}
	return out
}

// refCandidates is the siblings-then-whole-grid rule with per-site
// HasReplica calls.
func refCandidates(g scheduler.GridView, f storage.FileID, self topology.SiteID) []topology.SiteID {
	if c := refWithout(g, f, g.Topology().Region(self), self); len(c) > 0 {
		return c
	}
	return refWithout(g, f, allSites(g.NumSites()), self)
}

// refLeastLoaded is the least-loaded pick with a freshly allocated tie
// set on every strict decrease.
func refLeastLoaded(v *schedtest.View, cands []topology.SiteID, tie *rng.Source) topology.SiteID {
	best := []topology.SiteID{cands[0]}
	bestLoad := v.SiteLoads[cands[0]]
	for _, c := range cands[1:] {
		switch l := v.SiteLoads[c]; {
		case l < bestLoad:
			bestLoad = l
			best = []topology.SiteID{c}
		case l == bestLoad:
			best = append(best, c)
		}
	}
	if len(best) == 1 {
		return best[0]
	}
	return rng.Pick(tie, best)
}

// randomReps draws a replica list the way an aliased GIS snapshot can
// look: unsorted, possibly with duplicates, possibly empty.
func randomReps(src *rng.Source, sites int) []topology.SiteID {
	out := make([]topology.SiteID, src.Intn(sites+4))
	for i := range out {
		out[i] = topology.SiteID(src.Intn(sites))
	}
	return out
}

// TestHolderMarkMatchesHasReplicaFilter checks the holder-mark candidate
// sets and least-loaded picks against the per-site HasReplica filter on
// random views whose replica lists are unsorted and hold duplicates.
func TestHolderMarkMatchesHasReplicaFilter(t *testing.T) {
	src := rng.New(5)
	for _, shape := range []struct{ sites, fanout int }{{9, 3}, {13, 4}, {30, 6}, {8, 1}} {
		v := schedtest.NewHierView(shape.sites, shape.fanout)
		var tg Targets
		for trial := 0; trial < 400; trial++ {
			const files = 3
			for f := storage.FileID(0); f < files; f++ {
				v.Reps[f] = randomReps(src, shape.sites)
			}
			// Saturate a region now and then so the widening path runs.
			if trial%5 == 0 {
				v.Reps[0] = append(v.Reps[0], v.Topo.Region(0)...)
			}
			for s := 0; s < shape.sites; s++ {
				v.SiteLoads[topology.SiteID(s)] = src.Intn(3)
			}
			self := topology.SiteID(src.Intn(shape.sites))
			for f := storage.FileID(0); f < files; f++ {
				region := v.Topo.Region(self)
				if got, want := tg.Candidates(v, f, self), refCandidates(v, f, self); !slices.Equal(got, want) {
					t.Fatalf("%v trial %d: Candidates(%d, %d) = %v, want %v (reps %v)", shape, trial, f, self, got, want, v.Reps[f])
				}
				if got, want := tg.Without(v, f, region, self), refWithout(v, f, region, self); !slices.Equal(got, want) {
					t.Fatalf("%v trial %d: Without = %v, want %v", shape, trial, got, want)
				}
				if got, want := tg.Grid(v, f, self), refWithout(v, f, allSites(shape.sites), self); !slices.Equal(got, want) {
					t.Fatalf("%v trial %d: Grid = %v, want %v", shape, trial, got, want)
				}
			}

			popular := pops(0, 1, 2)
			ll := &LeastLoaded{Src: rng.New(uint64(trial))}
			ref := rng.New(uint64(trial))
			var want []scheduler.Replication
			for _, p := range popular {
				if c := refCandidates(v, p.File, self); len(c) > 0 {
					want = append(want, scheduler.Replication{File: p.File, Target: refLeastLoaded(v, c, ref)})
				}
			}
			if got := ll.Decide(v, self, popular); !slices.Equal(got, want) {
				t.Fatalf("%v trial %d: LeastLoaded.Decide = %v, want %v", shape, trial, got, want)
			}
		}
	}
}

// refBestClient is DataBestClient over the map form of ByRequester: every
// site in id order, HasReplica asked per site.
func refBestClient(g scheduler.GridView, self topology.SiteID, f storage.FileID, byReq map[topology.SiteID]int) topology.SiteID {
	best := topology.SiteID(-1)
	bestCount := 0
	for s := 0; s < g.NumSites(); s++ {
		sid := topology.SiteID(s)
		n := byReq[sid]
		if sid != self && n > bestCount && !g.HasReplica(f, sid) {
			best = sid
			bestCount = n
		}
	}
	return best
}

// TestBestClientPairsMatchMapForm checks that the site-ordered requester
// pairs pick the same target as the per-site map lookup did.
func TestBestClientPairsMatchMapForm(t *testing.T) {
	src := rng.New(9)
	const sites = 12
	v := schedtest.NewView(sites)
	b := &BestClient{}
	for trial := 0; trial < 2000; trial++ {
		v.Reps[1] = randomReps(src, sites)
		self := topology.SiteID(src.Intn(sites))
		byReq := map[topology.SiteID]int{}
		var pairs []scheduler.RequesterCount
		for s := 0; s < sites; s++ {
			if src.Intn(3) == 0 {
				n := 1 + src.Intn(4)
				byReq[topology.SiteID(s)] = n
				pairs = append(pairs, scheduler.RequesterCount{Site: topology.SiteID(s), Count: n})
			}
		}
		want := refBestClient(v, self, 1, byReq)
		got := b.Decide(v, self, []scheduler.PopularFile{{File: 1, Count: 10, ByRequester: pairs}})
		switch {
		case want < 0 && len(got) != 0:
			t.Fatalf("trial %d: Decide = %v, want no replication", trial, got)
		case want >= 0 && (len(got) != 1 || got[0].Target != want):
			t.Fatalf("trial %d: Decide = %v, want target %d", trial, got, want)
		}
	}
}

// countingView counts replica queries: on a stale GIS any query may
// refresh the snapshot, so a decision must not add one.
type countingView struct {
	*schedtest.View
	queries int
}

func (c *countingView) Replicas(f storage.FileID) []topology.SiteID {
	c.queries++
	return c.View.Replicas(f)
}

func (c *countingView) HasReplica(f storage.FileID, s topology.SiteID) bool {
	c.queries++
	return c.View.HasReplica(f, s)
}

// TestTargetsQueryOnlyWhenAsked checks that a decision that never asks
// whether another site holds the file makes no replica query: a singleton
// region (Cascade), a one-site grid (Random, LeastLoaded) and a
// self-only requester list (BestClient).
func TestTargetsQueryOnlyWhenAsked(t *testing.T) {
	solo := &countingView{View: schedtest.NewHierView(4, 1)} // every region one site
	if got := (&Cascade{Src: rng.New(1)}).Decide(solo, 2, pops(1)); len(got) != 0 || solo.queries != 0 {
		t.Fatalf("Cascade in a singleton region: %v with %d queries, want none", got, solo.queries)
	}
	self := []scheduler.PopularFile{{File: 1, Count: 3, ByRequester: []scheduler.RequesterCount{{Site: 2, Count: 3}}}}
	if got := (&BestClient{}).Decide(solo, 2, self); len(got) != 0 || solo.queries != 0 {
		t.Fatalf("BestClient with only self requesting: %v with %d queries, want none", got, solo.queries)
	}
	one := &countingView{View: schedtest.NewView(1)}
	for _, d := range []scheduler.Dataset{&Random{Src: rng.New(1)}, &LeastLoaded{Src: rng.New(1)}} {
		if got := d.Decide(one, 0, pops(1)); len(got) != 0 || one.queries != 0 {
			t.Fatalf("%s on a one-site grid: %v with %d queries, want none", d.Name(), got, one.queries)
		}
	}
	// Asking about other sites costs one replica-list read per file.
	hier := &countingView{View: schedtest.NewHierView(9, 3)}
	(&LeastLoaded{Src: rng.New(1)}).Decide(hier, 0, pops(1, 2))
	if hier.queries != 2 {
		t.Fatalf("LeastLoaded over two files made %d replica queries, want 2", hier.queries)
	}
}
