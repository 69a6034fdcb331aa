package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

func star(t testing.TB, sites int, bw float64) *topology.Topology {
	t.Helper()
	topo, err := topology.NewStar(sites, bw)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func hier(t testing.TB, sites, fanout int, bw float64) *topology.Topology {
	t.Helper()
	topo, err := topology.NewHierarchical(topology.Config{Sites: sites, RegionFanout: fanout, Bandwidth: bw}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestSingleTransferTime(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 3, 10e6), EqualShare)
	var doneAt desim.Time = -1
	n.Transfer(0, 1, 100e6, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	// 100 MB across two 10 MB/s links with no contention: 10 s.
	if math.Abs(doneAt-10) > 1e-9 {
		t.Fatalf("transfer finished at %v, want 10", doneAt)
	}
	if n.BytesMoved() != 100e6 {
		t.Fatalf("BytesMoved = %v", n.BytesMoved())
	}
	if n.CompletedTransfers() != 1 {
		t.Fatalf("transfers = %d", n.CompletedTransfers())
	}
}

func TestLocalTransferInstant(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 2, 10e6), EqualShare)
	done := false
	n.Transfer(1, 1, 500e6, func(*Flow) { done = true })
	if done {
		t.Fatal("local transfer completed synchronously; must go through event queue")
	}
	eng.Run()
	if !done {
		t.Fatal("local transfer never completed")
	}
	if eng.Now() != 0 {
		t.Fatalf("local transfer advanced clock to %v", eng.Now())
	}
}

func TestZeroSizeTransfer(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 2, 10e6), EqualShare)
	done := false
	n.Transfer(0, 1, 0, func(*Flow) { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero-size transfer never completed")
	}
}

func TestContentionSharesLink(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 3, 10e6), EqualShare)
	var t1, t2 desim.Time
	// Both flows target site 2: they share the hub->2 link.
	n.Transfer(0, 2, 100e6, func(*Flow) { t1 = eng.Now() })
	n.Transfer(1, 2, 100e6, func(*Flow) { t2 = eng.Now() })
	eng.Run()
	// Shared link gives each 5 MB/s: 20 s for both.
	if math.Abs(t1-20) > 1e-6 || math.Abs(t2-20) > 1e-6 {
		t.Fatalf("finish times %v %v, want 20", t1, t2)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	eng := desim.New()
	// Hierarchy with 4 sites, fanout 2 => two regions of two sites.
	topo := hier(t, 4, 2, 10e6)
	n := New(eng, topo, EqualShare)
	// Find two sibling pairs; transfers within each pair are disjoint.
	a := topo.Region(0)[1] // the region is ascending, so [0] is site 0
	var c, d topology.SiteID = -1, -1
	for s := topology.SiteID(1); s < 4; s++ {
		if s != a {
			if c < 0 {
				c = s
			} else {
				d = s
			}
		}
	}
	var tA, tB desim.Time
	n.Transfer(0, a, 100e6, func(*Flow) { tA = eng.Now() })
	n.Transfer(c, d, 100e6, func(*Flow) { tB = eng.Now() })
	eng.Run()
	if math.Abs(tA-10) > 1e-6 || math.Abs(tB-10) > 1e-6 {
		t.Fatalf("finish times %v %v, want 10 (no contention)", tA, tB)
	}
}

func TestStaggeredArrivalSlowsFirstFlow(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 3, 10e6), EqualShare)
	var t1 desim.Time
	n.Transfer(0, 2, 100e6, func(*Flow) { t1 = eng.Now() })
	eng.Schedule(5, func() {
		n.Transfer(1, 2, 100e6, func(*Flow) {})
	})
	eng.Run()
	// First flow: 5 s alone (50 MB), then 50 MB at 5 MB/s = 10 s more.
	if math.Abs(t1-15) > 1e-6 {
		t.Fatalf("first flow finished at %v, want 15", t1)
	}
}

func TestCancelStopsCallbackAndFreesBandwidth(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 3, 10e6), EqualShare)
	var t2 desim.Time
	f1 := n.Transfer(0, 2, 1000e6, func(*Flow) { t.Error("cancelled flow completed") })
	n.Transfer(1, 2, 100e6, func(*Flow) { t2 = eng.Now() })
	eng.Schedule(10, func() { n.Cancel(f1) })
	eng.Run()
	// Flow 2: 10 s at 5 MB/s (50 MB), then 50 MB at 10 MB/s = 5 s. Total 15.
	if math.Abs(t2-15) > 1e-6 {
		t.Fatalf("surviving flow finished at %v, want 15", t2)
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after run", n.ActiveFlows())
	}
}

func TestCancelTwiceAndAfterDone(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 2, 10e6), EqualShare)
	f := n.Transfer(0, 1, 10e6, func(*Flow) {})
	eng.Run()
	n.Cancel(f) // after completion: no-op
	n.Cancel(f)
	n.Cancel(nil)
}

func TestMaxMinRedistributes(t *testing.T) {
	// Star: flows A(0->2) and B(1->2) share hub->2; flow C(0->1) shares
	// 0->hub with A and 1->hub with B. Under max-min, C is bottlenecked
	// to 5, freeing capacity that A and B pick up on their shared access
	// links — equal share would cap A and B at 5 via their own links.
	eng := desim.New()
	n := New(eng, star(t, 3, 10e6), MaxMinFair)
	n.Transfer(0, 2, 1e9, func(*Flow) {})
	n.Transfer(1, 2, 1e9, func(*Flow) {})
	n.Transfer(0, 1, 1e9, func(*Flow) {})
	// Inspect rates right after start: settle via a zero-delay event.
	var rates []float64
	eng.Schedule(0, func() {
		for _, f := range n.flows {
			rates = append(rates, f.rate)
		}
		// Link capacity invariant: per-link sum of rates <= bandwidth.
		sum := make(map[topology.LinkID]float64)
		for _, f := range n.flows {
			for _, l := range f.path {
				sum[l] += f.rate
			}
		}
		for l, s := range sum {
			if s > 10e6+1e-6 {
				t.Errorf("link %d oversubscribed: %v", l, s)
			}
		}
		eng.Stop()
	})
	eng.Run()
	if len(rates) != 3 {
		t.Fatalf("expected 3 active flows, got %d", len(rates))
	}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	// Max-min here: hub->2 carries A+B = 10 MB/s total; C gets 5 MB/s.
	if math.Abs(total-15e6) > 1e-3 {
		t.Fatalf("total max-min throughput = %v, want 15e6", total)
	}
}

func TestEqualShareNeverOversubscribes(t *testing.T) {
	f := func(seed uint64) bool {
		eng := desim.New()
		topo := hier(t, 12, 4, 10e6)
		n := New(eng, topo, EqualShare)
		src := rng.New(seed)
		for i := 0; i < 30; i++ {
			a := topology.SiteID(src.Intn(12))
			b := topology.SiteID(src.Intn(12))
			delay := src.Range(0, 50)
			size := src.Range(1e6, 500e6)
			eng.Schedule(delay, func() { n.Transfer(a, b, size, nil) })
		}
		ok := true
		check := func() {
			sum := make(map[topology.LinkID]float64)
			for _, fl := range n.flows {
				for _, l := range fl.path {
					sum[l] += fl.rate
				}
			}
			for l, s := range sum {
				if s > topo.Link(l).Bandwidth+1e-6 {
					ok = false
				}
			}
		}
		for i := 0; i < 100; i++ {
			eng.Schedule(desim.Time(i), check)
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes delivered equals the sum of requested sizes, for
// random workloads under both policies.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed uint64, usePolicy bool) bool {
		policy := EqualShare
		if usePolicy {
			policy = MaxMinFair
		}
		eng := desim.New()
		n := New(eng, hier(t, 8, 3, 5e6), policy)
		src := rng.New(seed)
		want := 0.0
		completed := 0
		total := 25
		for i := 0; i < total; i++ {
			a := topology.SiteID(src.Intn(8))
			b := topology.SiteID(src.Intn(8))
			size := src.Range(1e5, 200e6)
			want += size
			delay := src.Range(0, 100)
			eng.Schedule(delay, func() {
				n.Transfer(a, b, size, func(*Flow) { completed++ })
			})
		}
		eng.Run()
		if completed != total {
			return false
		}
		return math.Abs(n.BytesMoved()-want) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkUtilizationAndBytes(t *testing.T) {
	eng := desim.New()
	topo := star(t, 2, 10e6)
	n := New(eng, topo, EqualShare)
	n.Transfer(0, 1, 100e6, nil)
	eng.Schedule(20, func() {}) // extend run to 20 s
	eng.Run()
	util := n.LinkUtilization()
	for _, u := range util {
		if math.Abs(u-0.5) > 1e-6 {
			t.Fatalf("link utilization = %v, want 0.5 (busy 10 of 20 s)", u)
		}
	}
	for _, b := range n.LinkBytes() {
		if math.Abs(b-100e6) > 1 {
			t.Fatalf("link bytes = %v, want 100e6", b)
		}
	}
}

func TestCongestionAndPredict(t *testing.T) {
	eng := desim.New()
	n := New(eng, star(t, 3, 10e6), EqualShare)
	if got := n.CongestionOn(0, 1); got != 0 {
		t.Fatalf("idle congestion = %d", got)
	}
	if pt := n.PredictTime(0, 1, 100e6); math.Abs(pt-10) > 1e-9 {
		t.Fatalf("PredictTime idle = %v, want 10", pt)
	}
	if pt := n.PredictTime(1, 1, 100e6); pt != 0 {
		t.Fatalf("PredictTime local = %v, want 0", pt)
	}
	n.Transfer(0, 2, 1e9, nil)
	eng.Schedule(0, func() {
		if got := n.CongestionOn(1, 2); got != 1 {
			t.Errorf("congestion on shared link = %d, want 1", got)
		}
		// New flow would share hub->2 with the existing one: 5 MB/s.
		if pt := n.PredictTime(1, 2, 100e6); math.Abs(pt-20) > 1e-9 {
			t.Errorf("PredictTime contended = %v, want 20", pt)
		}
		eng.Stop()
	})
	eng.Run()
}

func TestTransferPanicsOnNegativeSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := desim.New()
	n := New(eng, star(t, 2, 1e6), EqualShare)
	n.Transfer(0, 1, -5, nil)
}

func TestManyFlowsDeterministic(t *testing.T) {
	run := func() (float64, desim.Time) {
		eng := desim.New()
		n := New(eng, hier(t, 10, 3, 10e6), EqualShare)
		src := rng.New(99)
		for i := 0; i < 200; i++ {
			a := topology.SiteID(src.Intn(10))
			b := topology.SiteID(src.Intn(10))
			size := src.Range(1e6, 2e9)
			eng.Schedule(src.Range(0, 1000), func() { n.Transfer(a, b, size, nil) })
		}
		eng.Run()
		return n.BytesMoved(), eng.Now()
	}
	b1, t1 := run()
	b2, t2 := run()
	if b1 != b2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%v,%v) vs (%v,%v)", b1, t1, b2, t2)
	}
}
