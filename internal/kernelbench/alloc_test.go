package kernelbench

import (
	"fmt"
	"testing"

	"chicsim/internal/netsim"
)

// TestKernelBodiesRunAllocFree pins the zero-alloc contract of the kernel
// hot paths by running the real benchmark bodies and asserting their
// measured allocs/op: steady-state engine stepping, both reflow policies
// at every flow tier the suite tracks (pooled flow storage), and the ES
// and DS decisions on a stale GIS (scheduler scratch). One-time pool growth before the timer reset is excluded by
// testing.Benchmark itself; growth after it amortizes to zero over the
// benchmark's iteration count.
func TestKernelBodiesRunAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven assertions skipped in -short mode")
	}
	bodies := []struct {
		name string
		body func(*testing.B)
	}{
		{"EngineStep", EngineStep},
		{"ReflowEqualShare/sites=1000/flows=1000", ReflowGrid},
		{"PlaceDataPresent/sites=1000/holders=137", PlaceDataPresent},
		{"DecideLeastLoaded/sites=1000", DecideLeastLoaded},
	}
	for _, p := range []struct {
		label  string
		policy netsim.SharingPolicy
	}{{"ReflowEqualShare", netsim.EqualShare}, {"ReflowMaxMin", netsim.MaxMinFair}} {
		for _, flows := range []int{10, 100, 1000} {
			bodies = append(bodies, struct {
				name string
				body func(*testing.B)
			}{fmt.Sprintf("%s/flows=%d", p.label, flows), Reflow(p.policy, flows)})
		}
	}
	for _, bm := range bodies {
		t.Run(bm.name, func(t *testing.T) {
			br := testing.Benchmark(bm.body)
			if allocs := br.AllocsPerOp(); allocs != 0 {
				t.Errorf("%s: %d allocs/op (%d B/op), want 0", bm.name, allocs, br.AllocedBytesPerOp())
			}
		})
	}
}

// TestStaleDecisionsAllocFree pins the steady state of the two hot
// scheduling decisions on a stale GIS: once their scratch has grown, a
// JobDataPresent placement and a DataLeastLoaded wake allocate nothing.
func TestStaleDecisionsAllocFree(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (func(), error)
	}{
		{"DataPresent.Place", placeDataPresent},
		{"LeastLoaded.Decide", decideLeastLoaded},
	} {
		fn, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per decision, want 0", c.name, allocs)
		}
	}
}
