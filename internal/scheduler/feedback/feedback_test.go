package feedback

import (
	"math"
	"reflect"
	"testing"

	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/ds"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/scheduler/schedtest"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

func sample(now float64, queues []int, gisAge float64) Sample {
	return Sample{Now: now, QueueLens: queues, GISAge: gisAge}
}

func TestTrackerEWMA(t *testing.T) {
	p := Params{HalfLife: 100}
	p.Normalize()
	tr := NewTracker(p, nil, nil)
	tr.Observe(sample(0, []int{10}, 0))
	if got := tr.SmoothedLoad(0); got != 10 {
		t.Fatalf("first sample should seed the EWMA, got %v", got)
	}
	// One half-life later a sample of 0 should pull the EWMA halfway down.
	tr.Observe(sample(100, []int{0}, 0))
	if got := tr.SmoothedLoad(0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("after one half-life EWMA = %v, want 5", got)
	}
}

func TestTrackerFaultDecay(t *testing.T) {
	now := 0.0
	p := Params{FaultDecay: 200}
	p.Normalize()
	tr := NewTracker(p, nil, func() float64 { return now })
	tr.NoteFault(3)
	if got := tr.FaultPenalty(3); math.Abs(got-1) > 1e-9 {
		t.Fatalf("fresh fault penalty = %v, want 1", got)
	}
	now = 200 // one decay half-life
	if got := tr.FaultPenalty(3); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("penalty after one half-life = %v, want 0.5", got)
	}
	tr.NoteFault(3) // decay-then-increment
	if got := tr.FaultPenalty(3); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("penalty after second fault = %v, want 1.5", got)
	}
	if got := tr.FaultPenalty(4); got != 0 {
		t.Fatalf("untouched site penalty = %v, want 0", got)
	}
}

func TestTrackerPressureResetsOnRefresh(t *testing.T) {
	p := Params{HalfLife: 100}
	p.Normalize()
	tr := NewTracker(p, nil, nil)
	tr.Observe(sample(0, []int{0}, 0))
	tr.NoteDispatch(0)
	tr.NoteDispatch(0)
	if got := tr.Pressure(0); got != 2 {
		t.Fatalf("pressure = %v, want 2", got)
	}
	// GIS age grew: snapshot is the same one, pressure persists (decayed).
	tr.Observe(sample(60, []int{0}, 60))
	if got := tr.Pressure(0); got <= 0 || got >= 2 {
		t.Fatalf("pressure should decay but persist across a stale sample, got %v", got)
	}
	// GIS age dropped: fresh snapshot already reflects our dispatches.
	tr.Observe(sample(120, []int{0}, 10))
	if got := tr.Pressure(0); got != 0 {
		t.Fatalf("pressure should reset on GIS refresh, got %v", got)
	}
}

func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.Observe(sample(0, []int{1}, 0))
	tr.NoteDispatch(0)
	tr.NoteFault(0)
	if tr.Ready() {
		t.Fatal("nil tracker claims Ready")
	}
	if tr.SmoothedLoad(0) != 0 || tr.PredictedLoad(0) != 0 || tr.Pressure(0) != 0 ||
		tr.FaultPenalty(0) != 0 || tr.StalenessDiscount() != 0 ||
		tr.RouteBacklogSeconds(0, 1) != 0 || tr.NetworkBacklogSeconds() != 0 {
		t.Fatal("nil tracker returned nonzero telemetry")
	}
}

// TestESZeroWeightMatchesDataPresent replays many placements through the
// zero-weight feedback ES and the baseline JobDataPresent with cloned RNG
// streams: every decision, including randomized tie-breaks, must match.
func TestESZeroWeightMatchesDataPresent(t *testing.T) {
	v := schedtest.NewView(6)
	v.Reps[storage.FileID(1)] = []topology.SiteID{1, 2, 4}
	v.Reps[storage.FileID(2)] = []topology.SiteID{2, 4}
	v.SiteLoads = map[topology.SiteID]int{0: 5, 1: 2, 2: 2, 3: 0, 4: 2, 5: 1}

	fb := &ES{Src: rng.New(42)}
	base := es.DataPresent{Src: rng.New(42)}
	jobs := []*job.Job{
		{Inputs: []storage.FileID{1}},    // three tied replicas → RNG tie-break
		{Inputs: []storage.FileID{2}},    // two tied replicas
		{Inputs: []storage.FileID{1, 2}}, // multi-input max-resident
		{Inputs: nil},                    // no inputs → all-sites fallback
		{Inputs: []storage.FileID{9}},    // unreplicated file → all-sites fallback
		{Inputs: []storage.FileID{1}},    // repeat: streams must stay aligned
	}
	for i, j := range jobs {
		got, want := fb.Place(v, j), base.Place(v, j)
		if got != want {
			t.Fatalf("job %d: feedback placed at %d, baseline at %d", i, got, want)
		}
	}
}

// TestDSZeroWeightMatchesLeastLoaded does the same for the dataset side:
// zero-weight DataFeedback must emit the identical replication decisions
// as DataLeastLoaded, RNG draws included.
func TestDSZeroWeightMatchesLeastLoaded(t *testing.T) {
	v := schedtest.NewView(6)
	v.Reps[storage.FileID(1)] = []topology.SiteID{0}
	v.Reps[storage.FileID(2)] = []topology.SiteID{0, 3}
	v.Sizes[storage.FileID(1)] = 1e9
	v.Sizes[storage.FileID(2)] = 2e9
	v.SiteLoads = map[topology.SiteID]int{1: 1, 2: 1, 4: 1, 5: 3}

	fb := &DS{Src: rng.New(7)}
	base := ds.LeastLoaded{Src: rng.New(7)}
	popular := []scheduler.PopularFile{
		{File: 1, Count: 4},
		{File: 2, Count: 2},
	}
	got := fb.Decide(v, 0, popular)
	want := base.Decide(v, 0, popular)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("feedback decided %v, baseline %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("decision lists empty; test exercises nothing")
	}
}

// TestESQueueWeightSteersAwayFromStaleHotspot: with a warm tracker whose
// EWMA knows site 1 is loaded, a stale GIS snapshot claiming site 1 is
// idle must not win against an actually-idle replica holder.
func TestESQueueWeightSteersAwayFromStaleHotspot(t *testing.T) {
	v := schedtest.NewView(4)
	v.Reps[storage.FileID(1)] = []topology.SiteID{1, 2}
	v.SiteLoads = map[topology.SiteID]int{1: 0, 2: 1} // stale GIS: site 1 looks better

	p := DefaultParams()
	p.SpreadSeconds = 0 // isolate the ranking term
	now := 1000.0
	tr := NewTracker(p, v.Topo, func() float64 { return now })
	// Warm the tracker: site 1 has really been running an 8-deep queue.
	for ts := 0.0; ts <= 960; ts += p.Interval {
		tr.Observe(Sample{Now: ts, QueueLens: []int{0, 8, 1, 0}, GISAge: 110})
	}
	fb := &ES{Src: rng.New(1), Tracker: tr, Params: p}
	j := &job.Job{Inputs: []storage.FileID{1}}
	if got := fb.Place(v, j); got != 2 {
		t.Fatalf("feedback ES placed at %d, want the truly idle site 2", got)
	}
	// Sanity: the baseline (or zero weights) would chase the stale snapshot.
	zero := &ES{Src: rng.New(1)}
	if got := zero.Place(v, j); got != 1 {
		t.Fatalf("zero-weight ES placed at %d, want stale-snapshot site 1", got)
	}
}
