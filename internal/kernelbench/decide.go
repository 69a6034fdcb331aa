package kernelbench

import (
	"testing"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/gis"
	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/ds"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// gisView is a scheduler.GridView answered by a stale GIS (staleness 30 s,
// the ScaleConfig default) over ScaleConfig's 1000-site tree, so a decision
// pays for the same snapshot reads it pays in a simulation. The clock
// never moves, so after the first query every read hits the snapshot. The
// network queries answer zero: the policies measured here do not ask.
type gisView struct{ *gis.Service }

func (gisView) CEs(topology.SiteID) int                                    { return 1 }
func (gisView) Congestion(a, b topology.SiteID) int                        { return 0 }
func (gisView) PredictTransfer(a, b topology.SiteID, size float64) float64 { return 0 }

// newGISView builds the grid behind the decision benchmarks: per-site
// loads 0–7 (so least-loaded picks see ties) and nFiles files with no
// replicas yet. The caller registers replicas before the first decision.
func newGISView(nFiles int) (gisView, *catalog.Catalog, error) {
	cfg := ScaleConfig(0)
	topo, err := topology.NewHierarchical(topology.Config{
		Sites:        cfg.Sites,
		RegionFanout: cfg.RegionFanout,
		Bandwidth:    cfg.BandwidthMBps * 1e6,
	}, rng.New(1))
	if err != nil {
		return gisView{}, nil, err
	}
	loads := make([]int, topo.NumSites())
	x := uint64(0x9E3779B97F4A7C15)
	for i := range loads {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		loads[i] = int(x % 8)
	}
	cat := catalog.New()
	for f := 0; f < nFiles; f++ {
		if err := cat.DefineFile(storage.FileID(f), 1e9); err != nil {
			return gisView{}, nil, err
		}
	}
	svc := gis.New(desim.New(), cat, topo, func(s topology.SiteID) int { return loads[s] }, 30)
	return gisView{svc}, cat, nil
}

// placeDataPresent returns one JobDataPresent placement as a
// closure: a single-input job whose file has 137 holders spread over the
// grid — the mean candidate count scale-place's placements scan.
func placeDataPresent() (func(), error) {
	v, cat, err := newGISView(1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 137; i++ {
		cat.Register(0, topology.SiteID(i*7%v.NumSites()))
	}
	p := &es.DataPresent{Src: rng.New(1)}
	j := &job.Job{Inputs: []storage.FileID{0}, LastFailedSite: -1}
	return func() { p.Place(v, j) }, nil
}

// decideLeastLoaded returns one DataLeastLoaded wake at site 0 as
// a closure, with two popular files: one scattered over the grid (the
// candidates are site 0's region siblings) and one held across site 0's
// whole region (the decision widens to every site).
func decideLeastLoaded() (func(), error) {
	v, cat, err := newGISView(2)
	if err != nil {
		return nil, err
	}
	const self = topology.SiteID(0)
	for i := 0; i < 137; i++ {
		cat.Register(0, topology.SiteID(i*7%v.NumSites()))
	}
	for _, s := range v.Topology().Region(self) {
		cat.Register(1, s)
	}
	d := &ds.LeastLoaded{Src: rng.New(1)}
	popular := []scheduler.PopularFile{{File: 0, Count: 5}, {File: 1, Count: 4}}
	return func() { d.Decide(v, self, popular) }, nil
}

// decision runs one decision closure per iteration.
func decision(build func() (func(), error)) func(*testing.B) {
	return func(b *testing.B) {
		fn, err := build()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	}
}

// PlaceDataPresent measures one JobDataPresent placement at the candidate
// count scale-place sees (placeDataPresent).
func PlaceDataPresent(b *testing.B) { decision(placeDataPresent)(b) }

// DecideLeastLoaded measures one DataLeastLoaded wake on the 1000-site
// grid (decideLeastLoaded).
func DecideLeastLoaded(b *testing.B) { decision(decideLeastLoaded)(b) }
