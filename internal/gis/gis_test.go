package gis

import (
	"testing"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

func fixture(t *testing.T, staleness float64) (*desim.Engine, *catalog.Catalog, map[topology.SiteID]int, *Service) {
	t.Helper()
	eng := desim.New()
	cat := catalog.New()
	topo, err := topology.NewStar(4, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	loads := map[topology.SiteID]int{}
	svc := New(eng, cat, topo, func(s topology.SiteID) int { return loads[s] }, staleness)
	return eng, cat, loads, svc
}

func TestOracleMode(t *testing.T) {
	_, cat, loads, svc := fixture(t, 0)
	cat.DefineFile(1, 5e8)
	cat.Register(1, 2)
	loads[3] = 7
	if svc.Loads()[3] != 7 {
		t.Fatal("oracle load wrong")
	}
	loads[3] = 9
	if svc.Loads()[3] != 9 {
		t.Fatal("oracle load not live")
	}
	if reps := svc.Replicas(1); len(reps) != 1 || reps[0] != 2 {
		t.Fatalf("Replicas = %v", reps)
	}
	if !svc.HasReplica(1, 2) || svc.HasReplica(1, 0) {
		t.Fatal("HasReplica wrong")
	}
	if svc.FileSize(1) != 5e8 {
		t.Fatal("FileSize wrong")
	}
	if svc.NumSites() != 4 {
		t.Fatal("NumSites wrong")
	}
}

func TestStaleSnapshots(t *testing.T) {
	eng, cat, loads, svc := fixture(t, 60)
	cat.DefineFile(1, 5e8)
	loads[1] = 3

	var checks []func()
	at := func(ti desim.Time, fn func()) { checks = append(checks, func() { eng.At(ti, fn) }) }
	at(0, func() {
		if svc.Loads()[1] != 3 {
			t.Error("initial snapshot missed load")
		}
		loads[1] = 10
		cat.Register(1, 2)
		if svc.Loads()[1] != 3 {
			t.Error("snapshot should still say 3")
		}
		if svc.HasReplica(1, 2) {
			t.Error("snapshot should not see new replica yet")
		}
	})
	at(59, func() {
		if svc.Loads()[1] != 3 {
			t.Error("59s: snapshot should be unchanged")
		}
	})
	at(61, func() {
		if svc.Loads()[1] != 10 {
			t.Error("61s: snapshot should have refreshed")
		}
		if !svc.HasReplica(1, 2) {
			t.Error("61s: replica visible after refresh")
		}
		if reps := svc.Replicas(1); len(reps) != 1 || reps[0] != 2 {
			t.Errorf("Replicas = %v", reps)
		}
	})
	for _, c := range checks {
		c()
	}
	eng.Run()
}

func TestReplicasVisibleTo(t *testing.T) {
	eng := desim.New()
	cat := catalog.New()
	topo, err := topology.NewHierarchical(topology.Config{Sites: 9, RegionFanout: 3, Bandwidth: 1e6}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	svc := New(eng, cat, topo, func(topology.SiteID) int { return 0 }, 0)
	cat.DefineFile(1, 1e9)

	viewer := topology.SiteID(0)
	region := topo.Region(viewer)
	sib := region[1] // the region is ascending, so [0] is the viewer
	var outsider topology.SiteID = -1
	inRegion := map[topology.SiteID]bool{}
	for _, s := range region {
		inRegion[s] = true
	}
	for s := topology.SiteID(0); s < 9; s++ {
		if !inRegion[s] {
			outsider = s
			break
		}
	}

	// Master at the outsider: globally visible even out of region.
	svc.SetMaster(1, outsider)
	cat.Register(1, outsider)
	cat.Register(1, sib)
	got := svc.ReplicasVisibleTo(1, viewer)
	if len(got) != 2 {
		t.Fatalf("visible = %v, want master + sibling", got)
	}

	// A non-master replica out of region is invisible.
	var outsider2 topology.SiteID = -1
	for s := outsider + 1; s < 9; s++ {
		if !inRegion[s] && s != outsider {
			outsider2 = s
			break
		}
	}
	cat.Register(1, outsider2)
	got = svc.ReplicasVisibleTo(1, viewer)
	for _, r := range got {
		if r == outsider2 {
			t.Fatalf("out-of-region replica %d visible", outsider2)
		}
	}
	// The outsider itself sees its own copy.
	got = svc.ReplicasVisibleTo(1, outsider2)
	found := false
	for _, r := range got {
		if r == outsider2 {
			found = true
		}
	}
	if !found {
		t.Fatal("site cannot see its own replica")
	}
}

func TestFileSizeUnknownPanics(t *testing.T) {
	_, _, _, svc := fixture(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	svc.FileSize(42)
}
