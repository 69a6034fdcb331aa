package netsim

import (
	"math"
	"slices"
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/topology"
)

func TestLatencyDelaysTransfer(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 3, 10e6), EqualShare)
	n.SetLatencyPerHop(2) // 2 links => 4 s of setup
	var done desim.Time = -1
	n.Transfer(0, 1, 100e6, func(*Flow) { done = eng.Now() })
	eng.Run()
	if math.Abs(done-14) > 1e-9 {
		t.Fatalf("finished at %v, want 14 (4 s latency + 10 s transfer)", done)
	}
}

func TestLatencyLocalTransferUnaffected(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 2, 10e6), EqualShare)
	n.SetLatencyPerHop(5)
	done := false
	n.Transfer(1, 1, 1e9, func(*Flow) { done = true })
	eng.Run()
	if !done || eng.Now() != 0 {
		t.Fatalf("local transfer done=%v at %v", done, eng.Now())
	}
}

func TestLatencyPredictTime(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 2, 10e6), EqualShare)
	n.SetLatencyPerHop(3)
	if pt := n.PredictTime(0, 1, 100e6); math.Abs(pt-16) > 1e-9 {
		t.Fatalf("PredictTime = %v, want 16", pt)
	}
}

func TestCancelPendingFlow(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 2, 10e6), EqualShare)
	n.SetLatencyPerHop(10)
	f := n.Transfer(0, 1, 1e9, func(*Flow) { t.Error("cancelled pending flow completed") })
	eng.Schedule(1, func() { n.Cancel(f) })
	eng.Run()
	if n.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d", n.ActiveFlows())
	}
}

func TestSetLatencyPanicsOnInvalid(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 2, 1e6), EqualShare)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.SetLatencyPerHop(-1)
}

func TestDegradeLinkSlowsFlow(t *testing.T) {
	eng := desim.New()
	topo := star(t, 2, 10e6)
	n := New(eng, topo, EqualShare)
	var done desim.Time = -1
	n.Transfer(0, 1, 100e6, func(*Flow) { done = eng.Now() })
	// After 5 s (50 MB moved), halve one link's bandwidth.
	eng.Schedule(5, func() { n.SetLinkBandwidth(0, 5e6) })
	eng.Run()
	// Remaining 50 MB at 5 MB/s: 10 s more → total 15 s.
	if math.Abs(done-15) > 1e-9 {
		t.Fatalf("finished at %v, want 15", done)
	}
}

func TestLinkOutageStallsAndRecovers(t *testing.T) {
	eng := desim.New()
	topo := star(t, 2, 10e6)
	n := New(eng, topo, EqualShare)
	var done desim.Time = -1
	n.Transfer(0, 1, 100e6, func(*Flow) { done = eng.Now() })
	eng.Schedule(5, func() { n.SetLinkBandwidth(0, 0) })    // outage: flow stalls
	eng.Schedule(105, func() { n.SetLinkBandwidth(0, -1) }) // repair to nominal
	eng.Run()
	// 5 s moving + 100 s stalled + 5 s to finish the remaining 50 MB.
	if math.Abs(done-110) > 1e-9 {
		t.Fatalf("finished at %v, want 110", done)
	}
}

func TestOutageStallsUnderMaxMin(t *testing.T) {
	eng := desim.New()
	topo := star(t, 3, 10e6)
	n := New(eng, topo, MaxMinFair)
	var t1, t2 desim.Time = -1, -1
	n.Transfer(0, 2, 100e6, func(*Flow) { t1 = eng.Now() })
	n.Transfer(1, 2, 100e6, func(*Flow) { t2 = eng.Now() })
	// Kill site 0's access link at t=2; flow 1 then gets the full shared
	// link to itself.
	link0 := topo.Route(nil, 0, 2)[0]
	eng.Schedule(2, func() { n.SetLinkBandwidth(link0, 0) })
	eng.Schedule(1000, func() { n.SetLinkBandwidth(link0, -1) })
	eng.Run()
	// Flow 2: 2 s at 5 MB/s (10 MB), then 90 MB at 10 MB/s = 9 s → 11 s.
	if math.Abs(t2-11) > 1e-9 {
		t.Fatalf("flow 2 finished at %v, want 11", t2)
	}
	if t1 < 1000 {
		t.Fatalf("stalled flow finished at %v before repair", t1)
	}
}

func TestDegradedByteConservation(t *testing.T) {
	eng := desim.New()
	topo := topoHier(t)
	n := New(eng, topo, EqualShare)
	want := 0.0
	for i := 0; i < 20; i++ {
		size := float64(i+1) * 10e6
		want += size
		a := topology.SiteID(i % 8)
		b := topology.SiteID((i + 3) % 8)
		if a == b {
			want -= size
			continue
		}
		n.Transfer(a, b, size, nil)
	}
	// Degrade and repair random links during the run.
	for i := 0; i < 10; i++ {
		l := topology.LinkID(i % topo.NumLinks())
		eng.Schedule(float64(i)*3+1, func() { n.SetLinkBandwidth(l, 1e6) })
		eng.Schedule(float64(i)*3+2, func() { n.SetLinkBandwidth(l, -1) })
	}
	eng.Run()
	if math.Abs(n.BytesMoved()-want) > 1 {
		t.Fatalf("BytesMoved = %v, want %v", n.BytesMoved(), want)
	}
}

func TestOrderedFlowListConsistency(t *testing.T) {
	eng := desim.New()
	topo := topoHier(t)
	n := New(eng, topo, EqualShare)
	var handles []*Flow
	for i := 0; i < 40; i++ {
		a := topology.SiteID(i % 8)
		b := topology.SiteID((i + 1) % 8)
		size := float64(i+1) * 5e6
		delay := float64(i) * 2
		eng.Schedule(delay, func() { handles = append(handles, n.Transfer(a, b, size, nil)) })
	}
	// Cancel some mid-run and check the active list, the flows' ordinals
	// and the per-link flow index agree.
	check := func() {
		onPaths := 0
		for i, f := range n.active {
			if f.ord != i || f.pooled || f.canceled {
				t.Fatalf("active[%d] holds flow %d with ord %d (pooled %v, canceled %v)",
					i, f.ID, f.ord, f.pooled, f.canceled)
			}
			onPaths += len(f.path)
		}
		indexed := 0
		for l := range n.links {
			for _, f := range n.links[l].flows {
				if f.ord < 0 || !slices.Contains(f.path, topology.LinkID(l)) {
					t.Fatalf("link %d indexes flow %d, which is inactive or does not cross it", l, f.ID)
				}
			}
			indexed += len(n.links[l].flows)
		}
		if indexed != onPaths {
			t.Fatalf("per-link index holds %d entries, active paths cross %d", indexed, onPaths)
		}
	}
	for i := 0; i < 30; i++ {
		i := i
		eng.Schedule(float64(i)*3+1, func() {
			if i < len(handles) && i%3 == 0 {
				n.Cancel(handles[i])
			}
			check()
		})
	}
	eng.Run()
	check()
	if n.ActiveFlows() != 0 {
		t.Fatalf("flows left active: %d", n.ActiveFlows())
	}
}

func TestFetchHeavyDeterminismWithTies(t *testing.T) {
	// Many identical-size transfers that complete simultaneously: the
	// regression case for map-iteration nondeterminism in reflow.
	run := func() float64 {
		eng := desim.New()
		n := New(eng, star(t, 6, 10e6), EqualShare)
		last := 0.0
		for i := 0; i < 24; i++ {
			src := topology.SiteID(i % 3)
			dst := topology.SiteID(3 + i%3)
			n.Transfer(src, dst, 100e6, func(*Flow) { last = eng.Now() })
		}
		eng.Run()
		return last
	}
	a := run()
	for i := 0; i < 5; i++ {
		if b := run(); b != a {
			t.Fatalf("tied completions nondeterministic: %v vs %v", a, b)
		}
	}
}

// Property: under EqualShare, every active flow's rate equals the minimum
// over its path of bandwidth/occupancy — the paper's contention model,
// verified directly against the implementation at random instants.
func TestEqualShareRateFormula(t *testing.T) {
	eng := desim.New()
	topo := topoHier(t)
	n := New(eng, topo, EqualShare)
	for i := 0; i < 25; i++ {
		a := topology.SiteID(i % 8)
		b := topology.SiteID((i + 5) % 8)
		size := float64(i+1) * 20e6
		delay := float64(i * 7 % 40)
		eng.Schedule(delay, func() { n.Transfer(a, b, size, nil) })
	}
	checks := 0
	verify := func() {
		for _, f := range n.active {
			want := -1.0
			for _, l := range f.path {
				share := topo.Link(l).Bandwidth / float64(len(n.links[l].flows))
				if want < 0 || share < want {
					want = share
				}
			}
			if f.rate != want {
				t.Fatalf("flow %d rate %v, want %v", f.ID, f.rate, want)
			}
			checks++
		}
	}
	for i := 0; i < 60; i++ {
		eng.Schedule(float64(i), verify)
	}
	eng.Run()
	if checks == 0 {
		t.Fatal("property never exercised")
	}
}

func topoHier(t *testing.T) *topology.Topology {
	t.Helper()
	return hier(t, 8, 3, 10e6)
}
