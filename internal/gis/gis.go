// Package gis implements the Grid Information Service: the component that
// answers "what is the load at site X?" and "where are the replicas of
// file F?" for schedulers.
//
// The paper's modules obtain such external information "either from an
// information service (e.g., the Globus Toolkit's Monitoring and Discovery
// Service, Network Weather Service) or directly from sites". The default
// service is an oracle (fresh answers, as the paper effectively assumes);
// a configurable staleness interval makes the service answer from periodic
// snapshots instead, modelling MDS-style cached indexes (extension, see
// DESIGN.md §6).
package gis

import (
	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// LoadFunc reports a site's current load: the paper defines load as "the
// least number of jobs waiting to run", so this is the incoming-queue
// length.
type LoadFunc func(topology.SiteID) int

// Service answers scheduler queries about grid state.
type Service struct {
	eng      *desim.Engine
	cat      *catalog.Catalog
	topo     *topology.Topology
	loadOf   LoadFunc
	stale    float64 // snapshot refresh period; 0 = oracle
	snapTime desim.Time
	// loads is the load vector Loads hands out: the snapshot's loads
	// when stale, and for the oracle a buffer refilled on every call.
	loads []int
	// snapRep holds the snapshotted replica lists, indexed by file id
	// (nil for undefined files). The per-file buffers are reused across
	// refreshes — each refresh overwrites their contents wholesale, which
	// is indistinguishable from the historical fresh-copy-per-refresh
	// because no caller retains a returned slice across events.
	snapRep [][]topology.SiteID

	// masterOf records each file's permanent master site. Masters are
	// globally advertised even under regional scoping (the initial
	// dataset→site mapping is static, well-known metadata).
	masterOf map[storage.FileID]topology.SiteID
}

// New creates a service. staleness <= 0 yields an oracle.
func New(eng *desim.Engine, cat *catalog.Catalog, topo *topology.Topology, loadOf LoadFunc, staleness float64) *Service {
	return &Service{
		eng:      eng,
		cat:      cat,
		topo:     topo,
		loadOf:   loadOf,
		stale:    staleness,
		snapTime: -1,
	}
}

// Topology exposes the routed topology for hop/neighbor queries.
func (s *Service) Topology() *topology.Topology { return s.topo }

// SetMaster records a file's master site (used for scoped visibility:
// master locations are global knowledge).
func (s *Service) SetMaster(f storage.FileID, site topology.SiteID) {
	if s.masterOf == nil {
		s.masterOf = make(map[storage.FileID]topology.SiteID)
	}
	s.masterOf[f] = site
}

// ReplicasVisibleTo returns the replica locations of f that a scheduler at
// `viewer` can see under regional information scoping: replicas within the
// viewer's region plus the file's master site. This models the paper's
// decentralized stance — "each site takes informed decisions based on its
// view of the Grid" — without a global replica index.
func (s *Service) ReplicasVisibleTo(f storage.FileID, viewer topology.SiteID) []topology.SiteID {
	all := s.Replicas(f)
	master, hasMaster := s.masterOf[f]
	out := make([]topology.SiteID, 0, len(all))
	for _, r := range all {
		if s.topo.SameRegion(r, viewer) || (hasMaster && r == master) {
			out = append(out, r)
		}
	}
	return out
}

// HasReplicaVisibleTo reports whether site holds f in the view a
// scheduler at viewer has under regional scoping — membership in
// ReplicasVisibleTo(f, viewer), answered without building that list.
func (s *Service) HasReplicaVisibleTo(f storage.FileID, site, viewer topology.SiteID) bool {
	if !s.HasReplica(f, site) {
		return false
	}
	if s.topo.SameRegion(site, viewer) {
		return true
	}
	master, ok := s.masterOf[f]
	return ok && site == master
}

// NumSites returns the number of sites.
func (s *Service) NumSites() int { return s.topo.NumSites() }

// FileSize returns the file's size; it panics on unknown files (a
// scheduler asking about an undefined file is a harness bug).
func (s *Service) FileSize(f storage.FileID) float64 {
	size, ok := s.cat.Size(f)
	if !ok {
		panic("gis: size query for undefined file")
	}
	return size
}

func (s *Service) refresh() {
	if s.stale <= 0 {
		return
	}
	now := s.eng.Now()
	if s.snapTime >= 0 && now-s.snapTime < s.stale {
		return
	}
	s.snapTime = now
	s.fillLoads()
	bound := s.cat.FileIDBound()
	for len(s.snapRep) < bound {
		s.snapRep = append(s.snapRep, nil)
	}
	for f := 0; f < bound; f++ {
		id := storage.FileID(f)
		if _, ok := s.cat.Size(id); !ok {
			s.snapRep[f] = nil
			continue
		}
		s.snapRep[f] = append(s.snapRep[f][:0], s.cat.ReplicaList(id)...)
	}
}

// SnapshotAge returns how old (in virtual seconds) the snapshot backing
// answers currently is: 0 for the oracle, and 0 before the first query
// has forced a snapshot. Exposed as an observability probe so a series
// shows how stale the information schedulers were acting on.
func (s *Service) SnapshotAge() float64 {
	if s.stale <= 0 || s.snapTime < 0 {
		return 0
	}
	return s.eng.Now() - s.snapTime
}

// fillLoads reads every site's current load into s.loads.
func (s *Service) fillLoads() {
	n := s.topo.NumSites()
	if cap(s.loads) < n {
		s.loads = make([]int, n)
	}
	s.loads = s.loads[:n]
	for i := range s.loads {
		s.loads[i] = s.loadOf(topology.SiteID(i))
	}
}

// Loads returns the (possibly snapshotted) load of every site, indexed by
// site id. Stale mode hands out the snapshot after the usual refresh
// check. The oracle refills one service-owned buffer from the live loads
// on every call — O(sites), exact because loads cannot change inside one
// scheduling decision. The slice is valid within the current event and
// must not be modified.
func (s *Service) Loads() []int {
	if s.stale <= 0 {
		s.fillLoads()
		return s.loads
	}
	s.refresh()
	return s.loads
}

// Replicas returns the (possibly snapshotted) replica locations of f,
// sorted by site id.
func (s *Service) Replicas(f storage.FileID) []topology.SiteID {
	if s.stale <= 0 {
		return s.cat.Replicas(f)
	}
	s.refresh()
	if f < 0 || int(f) >= len(s.snapRep) {
		return nil
	}
	return s.snapRep[f]
}

// HasReplica reports whether site currently holds f per the service's view.
func (s *Service) HasReplica(f storage.FileID, site topology.SiteID) bool {
	if s.stale <= 0 {
		return s.cat.HasReplica(f, site)
	}
	s.refresh()
	if f < 0 || int(f) >= len(s.snapRep) {
		return false
	}
	// Linear scan, not binary search: the ES's least-loaded tie-set
	// writes can reorder a snapshot entry within a staleness window, so
	// the slice is not guaranteed sorted.
	for _, r := range s.snapRep[f] {
		if r == site {
			return true
		}
	}
	return false
}
