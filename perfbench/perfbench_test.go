package main

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"chicsim/internal/core"
)

// TestLayerMapCoversInternal keeps layerOf in step with the repository:
// every package under internal/ maps to a known layer, and no entry names
// a package that no longer exists.
func TestLayerMapCoversInternal(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	pkgs := map[string]bool{}
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgs["chicsim/"+filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no packages under ../internal")
	}
	for pkg := range pkgs {
		layer, ok := layerOf[pkg]
		if !ok {
			t.Errorf("package %s has no layer in layerOf", pkg)
		} else if !known[layer] || layer == layerUnattributed {
			t.Errorf("package %s maps to %q, not a reporting layer", pkg, layer)
		}
	}
	for pkg := range layerOf {
		if strings.HasPrefix(pkg, "chicsim/internal/") && !pkgs[pkg] {
			t.Errorf("layerOf names %s, which is not a package under internal/", pkg)
		}
	}
	if _, err := os.Stat("../" + liveMetricsFile); err != nil {
		t.Errorf("liveMetricsFile: %v", err)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"chicsim/internal/core.(*Simulation).Run":                                 "chicsim/internal/core",
		"chicsim/internal/core.(*Simulation).Run.func1":                           "chicsim/internal/core",
		"chicsim/internal/scheduler/es.JobDataPresent.Place":                      "chicsim/internal/scheduler/es",
		"chicsim/internal/metrics/stream.(*Reservoir[...]).Add":                   "chicsim/internal/metrics/stream",
		"chicsim/internal/metrics/stream.New[chicsim/internal/metrics.JobRecord]": "chicsim/internal/metrics/stream",
		"runtime.mallocgc":                       "runtime",
		"internal/abi.Fn":                        "internal/abi",
		"main.runScaleRep":                       "main",
		"main.main.func1":                        "main",
		"sort.Slice":                             "sort",
		"encoding/json.Marshal":                  "encoding/json",
		"golang.org/x/sync/errgroup.(*Group).Go": "golang.org/x/sync/errgroup",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) timing {
		s := make(timing, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: tail must sort
		}
		return s
	}
	for _, c := range []struct {
		n     int
		want  float64
		label string
	}{
		{1, 1, "max"},
		{20, 20, "max"},     // a 10-beyond percentile would sit below the median
		{21, 11, "p52.381"}, // 10 of 21 samples lie beyond the 11th
		{100, 90, "p90"},
		{216, 206, "p95.3704"},
	} {
		got, label := seq(c.n).tail()
		if got != c.want || label != c.label {
			t.Errorf("n=%d: tail = %v %s, want %v %s", c.n, got, label, c.want, c.label)
		}
	}
	if m := (timing{3, 1, 2, 10}).median(); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestScaleEndToEnd checks the scale aggregation on known samples: each
// input's median absorbs its hiccup, the means and quartiles are taken
// over inputs, and distinct seeds give disjoint inputs.
func TestScaleEndToEnd(t *testing.T) {
	w := scaleSpec{inputs: 8}
	seeds := w.seeds(1)
	if next := w.seeds(2); seeds[0] != 9 || seeds[7] != 16 || next[0] != 17 {
		t.Fatalf("seeds(1) = %v, seeds(2) = %v", seeds, next)
	}
	samples := make([]inputSamples, len(seeds))
	for i := range samples {
		s := &samples[i]
		for _, hiccup := range []float64{1, 1, 50} {
			s.setup.add(0.1*hiccup, calRef, calRef)
			s.nsPerJob.add(1000*float64(i+1)*hiccup, calRef, calRef)
			s.wall.add(float64(i+1)*hiccup, calRef, calRef)
			s.heap = append(s.heap, 10)
		}
	}
	r := newReport()
	r.scaleEndToEnd(seeds, samples)
	for name, want := range map[string]float64{
		"setup_s":           0.1,
		"ns_per_job":        4500,
		"heap_after_new_mb": 10,
		"wall_s":            4.5,
		"sim_ms_p50":        4500,
		"sim_ms_tail":       6000, // two of the eight inputs lie beyond it
	} {
		if got := r.metrics[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBadRunCounts seeds faults into a real run's Results and checks that
// each one counts as a failed simulation.
func TestBadRunCounts(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.TotalJobs = 300
	good, err := core.RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(good, nil, cfg.TotalJobs); err != nil {
		t.Fatalf("healthy run fails the checks: %v", err)
	}
	missing := good
	missing.JobsDone--
	aborted := good
	aborted.Completed = false
	skewed := good
	skewed.AvgExecSec += 1e-6
	var tl tally
	tl.record("good", checkRun(good, nil, cfg.TotalJobs))
	tl.record("missing job", checkRun(missing, nil, cfg.TotalJobs))
	tl.record("aborted", checkRun(aborted, nil, cfg.TotalJobs))
	tl.record("skewed decomposition", checkRun(skewed, nil, cfg.TotalJobs))
	tl.record("error", checkRun(good, errors.New("boom"), cfg.TotalJobs))
	if tl.attempted != 5 || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4 (%v)", tl.attempted, tl.failed, tl.reasons)
	}
	if string(resultsJSON(missing)) == string(resultsJSON(good)) {
		t.Error("a missing job does not change the results bytes the repetition check compares")
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestProfileAttribution runs the real profiler over code in this package
// and checks the decoder finds the samples and charges them to harness.
func TestProfileAttribution(t *testing.T) {
	lr := newLedgerRun()
	if err := lr.window(func() { spin(300 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	if lr.cpu.total < 5 {
		t.Fatalf("only %d samples in 300 ms of spinning", lr.cpu.total)
	}
	if s := lr.cpu.share(layerHarness); s < 0.5 {
		t.Errorf("harness share %.2f, want most of the samples (%v)", s, lr.cpu.samples)
	}
	if lr.cpu.cpuNs <= 0 {
		t.Errorf("cpuNs = %d", lr.cpu.cpuNs)
	}
	var buf strings.Builder
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Errorf("profiler still running after window: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
}
