package topology

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"chicsim/internal/rng"
)

func mustHier(t *testing.T, sites, fanout int) *Topology {
	t.Helper()
	topo, err := NewHierarchical(Config{Sites: sites, RegionFanout: fanout, Bandwidth: 10e6}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestHierarchicalShape(t *testing.T) {
	topo := mustHier(t, 30, 6)
	if topo.NumSites() != 30 {
		t.Fatalf("NumSites = %d", topo.NumSites())
	}
	// 1 root + 5 regions + 30 leaves => 36 nodes, 35 links.
	if topo.NumLinks() != 35 {
		t.Fatalf("NumLinks = %d, want 35", topo.NumLinks())
	}
	for s := 0; s < 30; s++ {
		if d := topo.SiteDepth(SiteID(s)); d != 2 {
			t.Fatalf("site %d depth = %d, want 2", s, d)
		}
	}
}

func TestRouteSelf(t *testing.T) {
	topo := mustHier(t, 10, 3)
	if len(topo.Route(nil, 4, 4)) != 0 {
		t.Fatal("self route should be empty")
	}
	if topo.Hops(4, 4) != 0 {
		t.Fatal("self hops should be 0")
	}
}

func TestRouteValidity(t *testing.T) {
	topo := mustHier(t, 30, 6)
	for a := 0; a < 30; a++ {
		for b := 0; b < 30; b++ {
			path := topo.Route(nil, SiteID(a), SiteID(b))
			if a == b {
				continue
			}
			if len(path) < 2 {
				t.Fatalf("route %d->%d too short: %d links", a, b, len(path))
			}
			// Path must be a connected chain of links.
			cur := topo.siteNode[a]
			for i, lid := range path {
				l := topo.Link(lid)
				switch cur {
				case l.A:
					cur = l.B
				case l.B:
					cur = l.A
				default:
					t.Fatalf("route %d->%d link %d not adjacent", a, b, i)
				}
			}
			if cur != topo.siteNode[b] {
				t.Fatalf("route %d->%d does not end at destination", a, b)
			}
		}
	}
}

func TestRouteSymmetricLength(t *testing.T) {
	topo := mustHier(t, 20, 4)
	for a := 0; a < 20; a++ {
		for b := 0; b < 20; b++ {
			if topo.Hops(SiteID(a), SiteID(b)) != topo.Hops(SiteID(b), SiteID(a)) {
				t.Fatalf("asymmetric hops %d<->%d", a, b)
			}
		}
	}
}

func TestSiblingHops(t *testing.T) {
	topo := mustHier(t, 30, 6)
	for s := 0; s < 30; s++ {
		region := topo.Region(SiteID(s))
		if len(region) < 2 {
			t.Fatalf("site %d has no siblings", s)
		}
		for _, sib := range region {
			if h := topo.Hops(SiteID(s), sib); sib != SiteID(s) && h != 2 {
				t.Fatalf("sibling hop count = %d, want 2", h)
			}
		}
	}
	// Non-siblings cross the root: 4 hops in a 3-tier tree.
	s0 := SiteID(0)
	for s := 1; s < 30; s++ {
		if !topo.SameRegion(s0, SiteID(s)) {
			if h := topo.Hops(s0, SiteID(s)); h != 4 {
				t.Fatalf("cross-region hops = %d, want 4", h)
			}
		}
	}
}

func TestNewTieredFourLevels(t *testing.T) {
	// GriPhyN vision: 1 root → 2 regions → 3 institutions each → 2
	// workstation-class sites each: 12 sites at depth 3.
	topo, err := NewTiered([]int{2, 3, 2}, []float64{100e6, 10e6, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSites() != 12 {
		t.Fatalf("NumSites = %d, want 12", topo.NumSites())
	}
	for s := 0; s < 12; s++ {
		if d := topo.SiteDepth(SiteID(s)); d != 3 {
			t.Fatalf("site %d depth %d", s, d)
		}
	}
	// Deepest separation: 6 hops (3 up + 3 down).
	if h := topo.Hops(0, 11); h != 6 {
		t.Fatalf("cross-grid hops = %d, want 6", h)
	}
	// Sibling sites: 2 hops.
	region := topo.Region(0)
	if len(region) != 2 {
		t.Fatalf("region = %v, want site 0 and exactly 1 sibling", region)
	}
	if h := topo.Hops(0, region[1]); h != 2 {
		t.Fatalf("sibling hops = %d", h)
	}
	// Tiered bandwidths land on the right links: leaf uplinks are 1 MB/s.
	leafUp := topo.Route(nil, 0, region[1])[0]
	if topo.Link(leafUp).Bandwidth != 1e6 {
		t.Fatalf("leaf uplink bw = %v", topo.Link(leafUp).Bandwidth)
	}
	// Backbone (root→region) links are 100 MB/s.
	for _, l := range topo.Links() {
		if topo.IsBackbone(l.ID) && l.Bandwidth != 100e6 {
			t.Fatalf("backbone bw = %v", l.Bandwidth)
		}
	}
}

func TestNewTieredMatchesHierarchicalShape(t *testing.T) {
	// NewTiered([]int{r, k}) has r regions × k sites, same depth layout
	// as NewHierarchical for divisible site counts.
	topo, err := NewTiered([]int{5, 6}, []float64{10e6})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSites() != 30 || topo.NumLinks() != 35 {
		t.Fatalf("sites=%d links=%d", topo.NumSites(), topo.NumLinks())
	}
	// Route validity across the tree.
	for a := 0; a < 30; a += 7 {
		for b := 0; b < 30; b += 5 {
			path := topo.Route(nil, SiteID(a), SiteID(b))
			if (a == b) != (len(path) == 0) {
				t.Fatalf("route %d->%d length %d", a, b, len(path))
			}
		}
	}
}

func TestNewTieredErrors(t *testing.T) {
	if _, err := NewTiered(nil, []float64{1}); err == nil {
		t.Error("empty fanouts accepted")
	}
	if _, err := NewTiered([]int{2, 0}, []float64{1}); err == nil {
		t.Error("zero fanout accepted")
	}
	if _, err := NewTiered([]int{2}, nil); err == nil {
		t.Error("missing bandwidths accepted")
	}
	if _, err := NewTiered([]int{2}, []float64{-1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestBackboneBandwidth(t *testing.T) {
	topo, err := NewHierarchical(Config{Sites: 8, RegionFanout: 4, Bandwidth: 10e6, BackboneBandwidth: 100e6}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var access, backbone int
	for _, l := range topo.Links() {
		switch l.Bandwidth {
		case 10e6:
			access++
		case 100e6:
			backbone++
		default:
			t.Fatalf("unexpected bandwidth %v", l.Bandwidth)
		}
	}
	// 8 leaves (access), 2 regions (backbone).
	if access != 8 || backbone != 2 {
		t.Fatalf("access=%d backbone=%d", access, backbone)
	}
	// Default: zero backbone means uniform bandwidth.
	topo2 := mustHier(t, 8, 4)
	for _, l := range topo2.Links() {
		if l.Bandwidth != 10e6 {
			t.Fatalf("uniform topology has link at %v", l.Bandwidth)
		}
	}
}

func TestStar(t *testing.T) {
	topo, err := NewStar(5, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumLinks() != 5 {
		t.Fatalf("star links = %d, want 5", topo.NumLinks())
	}
	if topo.Hops(0, 1) != 2 {
		t.Fatalf("star hops = %d, want 2", topo.Hops(0, 1))
	}
	if len(topo.Region(0)) != 5 {
		t.Fatalf("star region = %d sites, want 5", len(topo.Region(0)))
	}
	// Hub is node 0; site s is node s+1, hung off the hub by link s.
	for s := 0; s < 5; s++ {
		if l := topo.Link(LinkID(s)); l.A != 0 || l.B != NodeID(s+1) || l.Bandwidth != 1e6 {
			t.Fatalf("star link %d = %+v", s, l)
		}
		if topo.siteNode[s] != NodeID(s+1) {
			t.Fatalf("star site %d at node %d", s, topo.siteNode[s])
		}
	}
}

func TestSingleSite(t *testing.T) {
	topo, err := NewHierarchical(Config{Sites: 1, RegionFanout: 4, Bandwidth: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSites() != 1 {
		t.Fatal("want 1 site")
	}
	if len(topo.Route(nil, 0, 0)) != 0 {
		t.Fatal("self route must be empty")
	}
}

func TestInvalidConfigs(t *testing.T) {
	cases := []Config{
		{Sites: 0, RegionFanout: 2, Bandwidth: 1},
		{Sites: 3, RegionFanout: 0, Bandwidth: 1},
		{Sites: 3, RegionFanout: 2, Bandwidth: 0},
		{Sites: -1, RegionFanout: 2, Bandwidth: 1},
	}
	for _, c := range cases {
		if _, err := NewHierarchical(c, rng.New(1)); err == nil {
			t.Errorf("config %+v: expected error", c)
		}
	}
	if _, err := NewStar(0, 1); err == nil {
		t.Error("NewStar(0): expected error")
	}
	if _, err := NewStar(2, -1); err == nil {
		t.Error("NewStar negative bw: expected error")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := mustHier(t, 30, 6)
	b := mustHier(t, 30, 6)
	for s := 0; s < 30; s++ {
		sa, sb := a.Region(SiteID(s)), b.Region(SiteID(s))
		if len(sa) != len(sb) {
			t.Fatal("non-deterministic construction")
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatal("non-deterministic sibling sets")
			}
		}
	}
}

// Property: for random shapes, every pairwise route is a valid chain
// from src to dst and hop counts are symmetric.
func TestQuickRoutes(t *testing.T) {
	f := func(seed uint64, ns, nf uint8) bool {
		sites := int(ns)%40 + 1
		fanout := int(nf)%8 + 1
		topo, err := NewHierarchical(Config{Sites: sites, RegionFanout: fanout, Bandwidth: 1e6}, rng.New(seed))
		if err != nil {
			return false
		}
		for a := 0; a < sites; a++ {
			for b := 0; b < sites; b++ {
				path := topo.Route(nil, SiteID(a), SiteID(b))
				if (a == b) != (len(path) == 0) {
					return false
				}
				cur := topo.siteNode[a]
				for _, lid := range path {
					l := topo.Link(lid)
					switch cur {
					case l.A:
						cur = l.B
					case l.B:
						cur = l.A
					default:
						return false
					}
				}
				if cur != topo.siteNode[b] {
					return false
				}
				if topo.Hops(SiteID(a), SiteID(b)) != topo.Hops(SiteID(b), SiteID(a)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refRoute is the reference climb: walk the deeper endpoint up until the
// two meet, collecting uplinks from a and, separately, the links above b,
// which are then appended in descent order.
func refRoute(t *Topology, a, b NodeID) []LinkID {
	var up, down []LinkID
	for a != b {
		if t.nodes[a].Depth >= t.nodes[b].Depth {
			up = append(up, t.nodes[a].up)
			a = t.nodes[a].Parent
		} else {
			down = append(down, t.nodes[b].up)
			b = t.nodes[b].Parent
		}
	}
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// shapes returns the topologies the property tests run over: hierarchies
// of several sizes, fanouts and seeds, 3- and 4-tier NewTiered trees, and
// stars.
func shapes(t *testing.T) map[string]*Topology {
	t.Helper()
	out := map[string]*Topology{}
	for _, sites := range []int{1, 2, 7, 30, 61} {
		for _, fanout := range []int{1, 3, 6, 25} {
			for _, seed := range []uint64{1, 2, 99} {
				topo, err := NewHierarchical(Config{Sites: sites, RegionFanout: fanout, Bandwidth: 1e6}, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("hier/sites=%d/fanout=%d/seed=%d", sites, fanout, seed)] = topo
			}
		}
	}
	for _, fanouts := range [][]int{{5, 6}, {1, 4}, {2, 3, 2}, {3, 1, 4}} {
		topo, err := NewTiered(fanouts, []float64{100e6, 10e6, 1e6})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("tiered/%v", fanouts)] = topo
	}
	for _, sites := range []int{1, 5, 40} {
		topo, err := NewStar(sites, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("star/%d", sites)] = topo
	}
	return out
}

// TestRouteMatchesReferenceClimb checks every pairwise route against the
// reference climb, link for link, appended behind a non-empty prefix that
// must survive untouched, and checks Hops against the route's length.
func TestRouteMatchesReferenceClimb(t *testing.T) {
	prefix := []LinkID{-7, -8, -9}
	for name, topo := range shapes(t) {
		n := topo.NumSites()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := refRoute(topo, topo.siteNode[a], topo.siteNode[b])
				buf := append(make([]LinkID, 0, 4), prefix...)
				got := topo.Route(buf, SiteID(a), SiteID(b))
				if !slices.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("%s: route %d->%d overwrote the prefix: %v", name, a, b, got)
				}
				if !slices.Equal(got[len(prefix):], want) {
					t.Fatalf("%s: route %d->%d = %v, want %v", name, a, b, got[len(prefix):], want)
				}
				if h := topo.Hops(SiteID(a), SiteID(b)); h != len(want) {
					t.Fatalf("%s: hops %d->%d = %d, want %d", name, a, b, h, len(want))
				}
			}
		}
	}
}

// TestRegionMatchesSameParentScan checks Region and SameRegion against a
// brute-force scan for sites that share a parent.
func TestRegionMatchesSameParentScan(t *testing.T) {
	for name, topo := range shapes(t) {
		n := topo.NumSites()
		parent := func(s int) NodeID { return topo.nodes[topo.siteNode[s]].Parent }
		for a := 0; a < n; a++ {
			var want []SiteID
			for b := 0; b < n; b++ {
				same := parent(a) == parent(b)
				if same {
					want = append(want, SiteID(b))
				}
				if got := topo.SameRegion(SiteID(a), SiteID(b)); got != same {
					t.Fatalf("%s: SameRegion(%d, %d) = %v, want %v", name, a, b, got, same)
				}
			}
			if got := topo.Region(SiteID(a)); !slices.Equal(got, want) {
				t.Fatalf("%s: Region(%d) = %v, want %v", name, a, got, want)
			}
		}
	}
}

func TestRouteAndHopsAllocateNothing(t *testing.T) {
	topo, err := NewTiered([]int{3, 4, 5}, []float64{1e6})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]LinkID, 0, 6)
	n := SiteID(topo.NumSites())
	var i SiteID
	if allocs := testing.AllocsPerRun(100, func() {
		buf = topo.Route(buf[:0], i%n, (i*7+3)%n)
		i++
	}); allocs != 0 {
		t.Errorf("Route into a sized buffer: %v allocs/run, want 0", allocs)
	}
	hops := 0
	if allocs := testing.AllocsPerRun(100, func() {
		hops += topo.Hops(i%n, (i*7+3)%n)
		i++
	}); allocs != 0 {
		t.Errorf("Hops: %v allocs/run, want 0", allocs)
	}
}

// TestSetupHeapAt5000Sites bounds the live heap of a 5000-site hierarchy.
// The tree costs O(sites·depth); an all-pairs route table would cost
// gigabytes at this size.
func TestSetupHeapAt5000Sites(t *testing.T) {
	const boundMB = 4
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	topo, err := NewHierarchical(Config{Sites: 5000, RegionFanout: 25, Bandwidth: 1e6}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(topo)
	if mb := (float64(ms.HeapAlloc) - float64(before)) / 1e6; mb > boundMB {
		t.Fatalf("5000-site topology holds %.1f MB live, want <= %d MB", mb, boundMB)
	}
}

// BenchmarkTopologySetup times building the ScaleConfig-shaped hierarchy
// (fanout 25) at growing site counts.
func BenchmarkTopologySetup(b *testing.B) {
	for _, sites := range []int{500, 1000, 2000, 5000} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewHierarchical(Config{Sites: sites, RegionFanout: 25, Bandwidth: 1e6}, rng.New(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
