package scheduler

import (
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// Holders answers "does site s hold file f?" for one file at a time in
// O(1) per site. Mark reads the view's replica list once and stamps its
// sites with a fresh generation, so a decision that filters a region or
// the whole grid costs one list read plus one array load per site instead
// of a HasReplica call (a list scan) per site. The answers are exactly
// HasReplica's, because a view's HasReplica is membership in the same
// list Replicas returns — whether or not that list is sorted or holds
// duplicates. A Holders belongs to one policy instance (its scratch);
// the zero value is ready to use.
type Holders struct {
	gen  uint32
	mark []uint32 // per site: gen when the site held the marked file
}

// Mark stamps the sites currently holding f and returns the replica
// list it read, which callers may use in place of a second Replicas call.
func (h *Holders) Mark(g GridView, f storage.FileID) []topology.SiteID {
	if n := g.NumSites(); len(h.mark) < n {
		h.mark = make([]uint32, n)
	}
	h.gen++
	if h.gen == 0 { // wrapped: old stamps could alias the new generation
		clear(h.mark)
		h.gen = 1
	}
	reps := g.Replicas(f)
	for _, s := range reps {
		h.mark[s] = h.gen
	}
	return reps
}

// Has reports whether site s held the file at the last Mark.
func (h *Holders) Has(s topology.SiteID) bool { return h.mark[s] == h.gen }
