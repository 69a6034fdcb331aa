// Package topology models the hierarchical (GriPhyN-style) network that
// connects Data Grid sites.
//
// The paper assumes "a hierarchical network topology much like that
// envisioned by the GriPhyN project": a tree with a root hub, regional
// centers beneath it, and leaf sites beneath the regions. Every edge is a
// bidirectional link with a nominal bandwidth; the route between two sites
// climbs to their lowest common ancestor and descends.
package topology

import (
	"fmt"
	"slices"

	"chicsim/internal/rng"
)

// NodeID identifies a node in the topology (interior router or leaf site).
type NodeID int

// LinkID identifies a bidirectional link.
type LinkID int

// SiteID identifies a leaf site (dense 0..NumSites-1, distinct from NodeID).
type SiteID int

// Link is a bidirectional network link with a nominal bandwidth in
// bytes/second shared by all concurrent transfers that cross it.
type Link struct {
	ID        LinkID
	A, B      NodeID
	Bandwidth float64 // bytes per second
}

// Node is a vertex of the hierarchy.
type Node struct {
	ID     NodeID
	Parent NodeID // -1 for the root
	Depth  int
	Site   SiteID // >= 0 iff the node is a leaf site
	up     LinkID // link to parent; -1 for root
}

// Topology is an immutable routed network. Build one with NewHierarchical
// or NewStar and share it freely: all methods are read-only after
// construction.
type Topology struct {
	nodes    []Node
	links    []Link
	siteNode []NodeID   // site -> leaf node
	regions  [][]SiteID // parent node -> its leaf sites, ascending
}

// Config controls hierarchy construction.
type Config struct {
	Sites        int     // number of leaf sites (> 0)
	RegionFanout int     // leaf sites per regional center (> 0)
	Bandwidth    float64 // nominal bandwidth of access links, bytes/sec (> 0)
	// BackboneBandwidth, when > 0, overrides Bandwidth for the links
	// between the root and regional centers — GriPhyN-style provisioned
	// backbones. 0 means backbone links share the access bandwidth (the
	// paper's single "connectivity bandwidth").
	BackboneBandwidth float64
}

// NewHierarchical builds a three-tier tree: one root, ceil(Sites/Fanout)
// regional centers, and Sites leaves distributed round-robin over regions.
// The rand source only breaks ordering ties (region assignment shuffle) so
// that site index does not correlate with region membership.
func NewHierarchical(cfg Config, src *rng.Source) (*Topology, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("topology: Sites = %d, must be > 0", cfg.Sites)
	}
	if cfg.RegionFanout <= 0 {
		return nil, fmt.Errorf("topology: RegionFanout = %d, must be > 0", cfg.RegionFanout)
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("topology: Bandwidth = %v, must be > 0", cfg.Bandwidth)
	}
	backbone := cfg.BackboneBandwidth
	if backbone <= 0 {
		backbone = cfg.Bandwidth
	}
	t := &Topology{}
	root := t.addNode(-1, -1, cfg.Bandwidth)

	regions := (cfg.Sites + cfg.RegionFanout - 1) / cfg.RegionFanout
	regionNodes := make([]NodeID, regions)
	for r := 0; r < regions; r++ {
		regionNodes[r] = t.addNode(root, -1, backbone)
	}

	// Assign sites to regions round-robin over a shuffled site order.
	order := make([]int, cfg.Sites)
	for i := range order {
		order[i] = i
	}
	if src != nil {
		rng.Shuffle(src, order)
	}
	t.siteNode = make([]NodeID, cfg.Sites)
	for i, site := range order {
		region := regionNodes[i%regions]
		t.siteNode[site] = t.addNode(region, SiteID(site), cfg.Bandwidth)
	}
	t.bucketRegions()
	return t, nil
}

// NewTiered builds a general GriPhyN-style hierarchy with an arbitrary
// number of tiers: fanouts[i] children per node at depth i, with leaves at
// depth len(fanouts) becoming the sites. bandwidths[i] is the bandwidth of
// links from depth i to depth i+1; pass a single-element slice for uniform
// links. The GriPhyN vision is four tiers (CERN → regional centers →
// institutions → workstations); the paper's three-tier layout is
// NewTiered([]int{regions, sitesPerRegion}, ...).
func NewTiered(fanouts []int, bandwidths []float64) (*Topology, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("topology: NewTiered needs at least one tier")
	}
	for i, f := range fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("topology: tier %d fanout %d", i, f)
		}
	}
	if len(bandwidths) == 0 {
		return nil, fmt.Errorf("topology: NewTiered needs link bandwidths")
	}
	for i, b := range bandwidths {
		if b <= 0 {
			return nil, fmt.Errorf("topology: tier %d bandwidth %v", i, b)
		}
	}
	bwAt := func(depth int) float64 {
		if depth < len(bandwidths) {
			return bandwidths[depth]
		}
		return bandwidths[len(bandwidths)-1]
	}
	t := &Topology{}
	frontier := []NodeID{t.addNode(-1, -1, 0)}
	for depth, fanout := range fanouts {
		leafTier := depth == len(fanouts)-1
		var next []NodeID
		for _, parent := range frontier {
			for c := 0; c < fanout; c++ {
				site := SiteID(-1)
				if leafTier {
					site = SiteID(len(t.siteNode))
				}
				id := t.addNode(parent, site, bwAt(depth))
				if leafTier {
					t.siteNode = append(t.siteNode, id)
				}
				next = append(next, id)
			}
		}
		frontier = next
	}
	t.bucketRegions()
	return t, nil
}

// NewStar builds a degenerate hierarchy: every site hangs directly off one
// hub. Useful for tests and for isolating contention at a single shared
// point.
func NewStar(sites int, bandwidth float64) (*Topology, error) {
	return NewTiered([]int{sites}, []float64{bandwidth})
}

func (t *Topology) addNode(parent NodeID, site SiteID, bw float64) NodeID {
	id := NodeID(len(t.nodes))
	n := Node{ID: id, Parent: parent, Site: site, up: -1}
	if parent >= 0 {
		n.Depth = t.nodes[parent].Depth + 1
		lid := LinkID(len(t.links))
		t.links = append(t.links, Link{ID: lid, A: parent, B: id, Bandwidth: bw})
		n.up = lid
	}
	t.nodes = append(t.nodes, n)
	return id
}

// bucketRegions groups the sites by their parent node, each group in
// ascending site order.
func (t *Topology) bucketRegions() {
	t.regions = make([][]SiteID, len(t.nodes))
	for s, nid := range t.siteNode {
		p := t.nodes[nid].Parent
		t.regions[p] = append(t.regions[p], SiteID(s))
	}
}

// lca climbs both nodes to their lowest common ancestor.
func (t *Topology) lca(a, b NodeID) NodeID {
	for a != b {
		if t.nodes[a].Depth >= t.nodes[b].Depth {
			a = t.nodes[a].Parent
		} else {
			b = t.nodes[b].Parent
		}
	}
	return a
}

// NumSites returns the number of leaf sites.
func (t *Topology) NumSites() int { return len(t.siteNode) }

// NumLinks returns the number of links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns all links (do not mutate).
func (t *Topology) Links() []Link { return t.links }

// Route appends the ordered links between two sites to buf and returns
// the extended slice: the uplinks from src to the lowest common ancestor,
// then the downlinks toward dst in descent order. Nothing is appended when
// src == dst. Route allocates only when buf lacks the capacity.
func (t *Topology) Route(buf []LinkID, src, dst SiteID) []LinkID {
	a, b := t.siteNode[src], t.siteNode[dst]
	top := t.lca(a, b)
	for ; a != top; a = t.nodes[a].Parent {
		buf = append(buf, t.nodes[a].up)
	}
	// The descent is found bottom-up, so fill its slots from the end.
	end := len(buf) + t.nodes[b].Depth - t.nodes[top].Depth
	buf = slices.Grow(buf, end-len(buf))[:end]
	for i := end - 1; b != top; i, b = i-1, t.nodes[b].Parent {
		buf[i] = t.nodes[b].up
	}
	return buf
}

// Hops returns the number of links on the route between two sites.
func (t *Topology) Hops(src, dst SiteID) int {
	a, b := t.siteNode[src], t.siteNode[dst]
	return t.nodes[a].Depth + t.nodes[b].Depth - 2*t.nodes[t.lca(a, b)].Depth
}

// Region returns the sites that share s's parent, s included, in
// ascending order. A site's region minus itself is its set of
// "neighbors", the candidates the DataLeastLoaded dataset scheduler
// replicates to. The slice is shared; callers must not mutate it.
func (t *Topology) Region(s SiteID) []SiteID {
	return t.regions[t.nodes[t.siteNode[s]].Parent]
}

// SameRegion reports whether two sites share a parent; a site is in its
// own region.
func (t *Topology) SameRegion(a, b SiteID) bool {
	return t.nodes[t.siteNode[a]].Parent == t.nodes[t.siteNode[b]].Parent
}

// IsBackbone reports whether the link connects the root to a regional
// center (the shared top-tier links of the hierarchy).
func (t *Topology) IsBackbone(l LinkID) bool {
	link := t.links[l]
	return t.nodes[link.A].Parent == -1 || t.nodes[link.B].Parent == -1
}

// SiteDepth returns the tree depth of the site's leaf node.
func (t *Topology) SiteDepth(s SiteID) int { return t.nodes[t.siteNode[s]].Depth }
