package es

import (
	"testing"

	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/schedtest"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

func mkJob(origin topology.SiteID, inputs ...storage.FileID) *job.Job {
	return job.New(1, 0, origin, inputs, 300)
}

func TestNames(t *testing.T) {
	for _, c := range []struct {
		s    scheduler.External
		want string
	}{
		{Random{Src: rng.New(1)}, "JobRandom"},
		{&LeastLoaded{Src: rng.New(1)}, "JobLeastLoaded"},
		{&DataPresent{Src: rng.New(1)}, "JobDataPresent"},
		{Local{}, "JobLocal"},
		{&BestCost{}, "JobBestCost"},
		{&Adaptive{}, "JobAdaptive"},
	} {
		if c.s.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.s.Name(), c.want)
		}
	}
}

func TestRandomCoversAllSites(t *testing.T) {
	v := schedtest.NewView(8)
	r := Random{Src: rng.New(5)}
	seen := map[topology.SiteID]bool{}
	for i := 0; i < 2000; i++ {
		s := r.Place(v, mkJob(0, 1))
		if s < 0 || int(s) >= 8 {
			t.Fatalf("placed at invalid site %d", s)
		}
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Fatalf("random placement covered %d/8 sites", len(seen))
	}
}

func TestLeastLoadedPicksMinimum(t *testing.T) {
	v := schedtest.NewView(4)
	v.Loads[0] = 5
	v.Loads[1] = 2
	v.Loads[2] = 9
	v.Loads[3] = 2
	l := LeastLoaded{Src: rng.New(1)}
	counts := map[topology.SiteID]int{}
	for i := 0; i < 500; i++ {
		counts[l.Place(v, mkJob(0, 1))]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("placed at loaded sites: %v", counts)
	}
	// Ties between 1 and 3 should both occur.
	if counts[1] == 0 || counts[3] == 0 {
		t.Fatalf("tie-breaking never picked one of the tied sites: %v", counts)
	}
}

func TestLocal(t *testing.T) {
	v := schedtest.NewView(4)
	if got := (Local{}).Place(v, mkJob(3, 1)); got != 3 {
		t.Fatalf("JobLocal placed at %d, want origin 3", got)
	}
}

func TestDataPresentPrefersReplicaSites(t *testing.T) {
	v := schedtest.NewView(6)
	v.Reps[7] = []topology.SiteID{2, 4}
	v.Loads[2] = 3
	v.Loads[4] = 1
	d := DataPresent{Src: rng.New(1)}
	if got := d.Place(v, mkJob(0, 7)); got != 4 {
		t.Fatalf("placed at %d, want least-loaded replica site 4", got)
	}
}

func TestDataPresentFallsBackWithoutReplicas(t *testing.T) {
	v := schedtest.NewView(5)
	v.Loads[0] = 1
	v.Loads[1] = 1
	v.Loads[2] = 0
	v.Loads[3] = 1
	v.Loads[4] = 1
	d := DataPresent{Src: rng.New(1)}
	if got := d.Place(v, mkJob(0, 99)); got != 2 {
		t.Fatalf("fallback placed at %d, want least-loaded 2", got)
	}
}

func TestDataPresentMultiInputMaximizesResidentBytes(t *testing.T) {
	v := schedtest.NewView(4)
	v.Sizes[1] = 2e9
	v.Sizes[2] = 1e9
	v.Reps[1] = []topology.SiteID{1}
	v.Reps[2] = []topology.SiteID{2}
	d := DataPresent{Src: rng.New(1)}
	// Site 1 holds 2 GB of the job's inputs, site 2 holds 1 GB.
	if got := d.Place(v, mkJob(0, 1, 2)); got != 1 {
		t.Fatalf("placed at %d, want site 1 (most input bytes)", got)
	}
}

func TestBestCostAvoidsExpensiveTransfers(t *testing.T) {
	v := schedtest.NewView(3)
	v.Sizes[1] = 1e9
	v.Reps[1] = []topology.SiteID{2}
	v.RatePerSec = 1e6 // 1000 s to move 1 GB
	b := BestCost{Src: rng.New(1), AvgComputeSec: 300, CEsPerSite: 3}
	// Site 2 has the data (no transfer); others pay 1000 s.
	if got := b.Place(v, mkJob(0, 1)); got != 2 {
		t.Fatalf("placed at %d, want data site 2", got)
	}
}

func TestBestCostAvoidsLongQueues(t *testing.T) {
	v := schedtest.NewView(3)
	v.Sizes[1] = 1e9
	v.Reps[1] = []topology.SiteID{2}
	v.RatePerSec = 100e6 // cheap transfers: 10 s
	v.Loads[2] = 50      // but site 2 is swamped
	b := BestCost{Src: rng.New(1), AvgComputeSec: 300, CEsPerSite: 3}
	if got := b.Place(v, mkJob(0, 1)); got == 2 {
		t.Fatal("placed at swamped site despite cheap transfer elsewhere")
	}
}

func TestAdaptivePullsWhenCheap(t *testing.T) {
	v := schedtest.NewView(3)
	v.Sizes[1] = 1e9
	v.Reps[1] = []topology.SiteID{2}
	v.RatePerSec = 1e9 // 1 s transfer vs 300 s compute: pull home
	a := Adaptive{Src: rng.New(1), PullFraction: 0.5}
	if got := a.Place(v, mkJob(0, 1)); got != 0 {
		t.Fatalf("placed at %d, want origin 0 (cheap pull)", got)
	}
}

func TestAdaptiveFollowsDataWhenExpensive(t *testing.T) {
	v := schedtest.NewView(3)
	v.Sizes[1] = 1e9
	v.Reps[1] = []topology.SiteID{2}
	v.RatePerSec = 1e6 // 1000 s transfer vs 300 s compute: go to data
	a := Adaptive{Src: rng.New(1), PullFraction: 0.5}
	if got := a.Place(v, mkJob(0, 1)); got != 2 {
		t.Fatalf("placed at %d, want data site 2", got)
	}
}

func TestAdaptiveLocalDataStaysLocal(t *testing.T) {
	v := schedtest.NewView(3)
	v.Sizes[1] = 1e9
	v.Reps[1] = []topology.SiteID{0}
	v.RatePerSec = 1 // transfers absurdly slow, but data is already home
	a := Adaptive{Src: rng.New(1)}
	if got := a.Place(v, mkJob(0, 1)); got != 0 {
		t.Fatalf("placed at %d, want origin (data local)", got)
	}
}

func TestRegionalPrefersInRegionData(t *testing.T) {
	v := schedtest.NewHierView(9, 3)
	origin := topology.SiteID(0)
	sibs := v.Siblings(origin)
	// Data at a sibling: run there.
	v.Reps[1] = []topology.SiteID{sibs[0]}
	r := Regional{Src: rng.New(1)}
	if got := r.Place(v, mkJob(origin, 1)); got != sibs[0] {
		t.Fatalf("placed at %d, want in-region holder %d", got, sibs[0])
	}
	// Data only out of region: run at origin (pull it home).
	var outsider topology.SiteID = -1
	inRegion := map[topology.SiteID]bool{origin: true}
	for _, s := range sibs {
		inRegion[s] = true
	}
	for s := topology.SiteID(0); s < 9; s++ {
		if !inRegion[s] {
			outsider = s
			break
		}
	}
	v.Reps[1] = []topology.SiteID{outsider}
	if got := r.Place(v, mkJob(origin, 1)); got != origin {
		t.Fatalf("placed at %d, want origin %d", got, origin)
	}
	// Origin itself holds the data: stay home.
	v.Reps[1] = []topology.SiteID{origin}
	if got := r.Place(v, mkJob(origin, 1)); got != origin {
		t.Fatalf("placed at %d, want origin", got)
	}
}

func TestRegionalLeastLoadedAmongHolders(t *testing.T) {
	v := schedtest.NewHierView(9, 3)
	origin := topology.SiteID(0)
	sibs := v.Siblings(origin)
	v.Reps[1] = []topology.SiteID{sibs[0], sibs[1]}
	v.Loads[sibs[0]] = 9
	v.Loads[sibs[1]] = 1
	r := Regional{Src: rng.New(1)}
	if got := r.Place(v, mkJob(origin, 1)); got != sibs[1] {
		t.Fatalf("placed at %d, want least-loaded holder %d", got, sibs[1])
	}
}

func TestDeterministicGivenSameStream(t *testing.T) {
	v := schedtest.NewView(10)
	for f := storage.FileID(0); f < 5; f++ {
		v.Reps[f] = []topology.SiteID{topology.SiteID(f), topology.SiteID(f + 5)}
		v.Sizes[f] = 1e9
	}
	place := func() []topology.SiteID {
		var out []topology.SiteID
		algs := []scheduler.External{
			Random{Src: rng.New(42)},
			&LeastLoaded{Src: rng.New(42)},
			&DataPresent{Src: rng.New(42)},
		}
		for _, alg := range algs {
			for i := 0; i < 50; i++ {
				out = append(out, alg.Place(v, mkJob(topology.SiteID(i%10), storage.FileID(i%5))))
			}
		}
		return out
	}
	a, b := place(), place()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic placement at %d", i)
		}
	}
}
