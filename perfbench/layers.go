package main

import (
	"sort"
	"strings"
)

// Layer names, as they prefix the per-layer metrics. A layer is one of
// the repository's modules (or a small group of them); runtime collects
// samples with no program frame at all (GC workers, the scheduler), and
// unattributed collects program frames whose package is not in layerOf.
const (
	layerTopology     = "topology"
	layerWorkload     = "workload"
	layerES           = "es"
	layerGIS          = "gis"
	layerCatalog      = "catalog"
	layerDS           = "ds"
	layerNetsim       = "netsim"
	layerDesim        = "desim"
	layerSite         = "site"
	layerMetrics      = "metrics"
	layerObs          = "obs"
	layerExperiments  = "experiments"
	layerCore         = "core"
	layerHarness      = "harness"
	layerRuntime      = "runtime"
	layerUnattributed = "unattributed"
)

// layers lists every layer in report order.
var layers = []string{
	layerTopology, layerWorkload, layerES, layerGIS, layerCatalog, layerDS,
	layerNetsim, layerDesim, layerSite, layerMetrics, layerObs,
	layerExperiments, layerCore, layerHarness, layerRuntime, layerUnattributed,
}

// layerOf maps every package under internal/ to exactly one layer.
// Helper packages with no layer of their own (rng, job, faults, ...) go
// to core, which drives them; TestLayerMapCoversInternal keeps the map
// complete.
var layerOf = map[string]string{
	"chicsim/internal/topology":            layerTopology,
	"chicsim/internal/workload":            layerWorkload,
	"chicsim/internal/scheduler":           layerES,
	"chicsim/internal/scheduler/es":        layerES,
	"chicsim/internal/scheduler/feedback":  layerES,
	"chicsim/internal/scheduler/schedtest": layerES,
	"chicsim/internal/gis":                 layerGIS,
	"chicsim/internal/catalog":             layerCatalog,
	"chicsim/internal/scheduler/ds":        layerDS,
	"chicsim/internal/netsim":              layerNetsim,
	"chicsim/internal/desim":               layerDesim,
	"chicsim/internal/site":                layerSite,
	"chicsim/internal/storage":             layerSite,
	"chicsim/internal/scheduler/ls":        layerSite,
	"chicsim/internal/metrics":             layerMetrics,
	"chicsim/internal/metrics/stream":      layerMetrics,
	"chicsim/internal/report":              layerMetrics,
	"chicsim/internal/stats":               layerMetrics,
	"chicsim/internal/obs":                 layerObs,
	"chicsim/internal/obs/registry":        layerObs,
	"chicsim/internal/obs/watchdog":        layerObs,
	"chicsim/internal/obs/logging":         layerObs,
	"chicsim/internal/obs/monitor":         layerObs,
	"chicsim/internal/experiments":         layerExperiments,
	"chicsim/internal/experiments/tune":    layerExperiments,
	"chicsim/internal/fabric":              layerExperiments,
	"chicsim/internal/core":                layerCore,
	"chicsim/internal/job":                 layerCore,
	"chicsim/internal/faults":              layerCore,
	"chicsim/internal/rng":                 layerCore,
	"chicsim/internal/intern":              layerCore,
	"chicsim/internal/trace":               layerCore,
	"chicsim/internal/queueing":            layerCore,
	"chicsim/internal/kernelbench":         layerHarness,
	// This benchmark: package main in the binary, its import path in the
	// test binary.
	"main":              layerHarness,
	"chicsim/perfbench": layerHarness,
}

// liveMetricsFile is the one file whose package (core) is not its layer:
// it is the kernel's side of the live control plane, so it counts as obs.
const liveMetricsFile = "internal/core/livemetrics.go"

// funcPackage returns the import path of the package that defines the
// function with the given symbol name, e.g. "chicsim/internal/core" for
// "chicsim/internal/core.(*Simulation).Run".
func funcPackage(name string) string {
	// Receiver and type-argument brackets may hold further paths.
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/') + 1
	if dot := strings.IndexByte(name[slash:], '.'); dot >= 0 {
		return name[:slash+dot]
	}
	return name
}

// isProgram reports whether a package belongs to this repository rather
// than to the Go runtime or standard library.
func isProgram(pkg string) bool {
	return pkg == "main" || strings.HasPrefix(pkg, "chicsim/")
}

// inclusiveLayers are the layers whose inclusive share is reported too:
// the observers, whose checks spend most of their time in the code they
// inspect, and the ES, whose placements spend theirs reading the GIS and
// replica state.
var inclusiveLayers = []string{layerObs, layerES}

// ledger accumulates CPU-profile samples by layer.
type ledger struct {
	samples   map[string]int64 // by innermost program frame
	inclusive map[string]int64 // by any frame on the stack, inclusiveLayers only
	unmapped  map[string]int64 // program packages missing from layerOf
	total     int64
	cpuNs     int64 // sampled CPU time, the base of every share
}

func newLedger() *ledger {
	return &ledger{samples: map[string]int64{}, inclusive: map[string]int64{}, unmapped: map[string]int64{}}
}

// add attributes each sample to the layer of its innermost program frame,
// so standard-library and runtime helpers count toward the layer that
// called them.
func (l *ledger) add(p *cpuProfile) {
	for _, s := range p.samples {
		layer, pkg := l.attribute(p, s)
		if layer == layerUnattributed {
			l.unmapped[pkg] += s.count
		}
		l.samples[layer] += s.count
		for _, il := range inclusiveLayers {
			if onStack(p, s, il) {
				l.inclusive[il] += s.count
			}
		}
		l.total += s.count
		l.cpuNs += s.count * p.period
	}
}

func (l *ledger) attribute(p *cpuProfile, s profSample) (layer, pkg string) {
	for _, loc := range s.locs {
		for _, fid := range p.locs[loc] {
			if layer, pkg := frameLayer(p.funcs[fid]); layer != "" {
				return layer, pkg
			}
		}
	}
	return layerRuntime, ""
}

// frameLayer returns the layer and package of a program frame, or "" for
// a runtime or standard-library frame.
func frameLayer(fn profFunc) (layer, pkg string) {
	pkg = funcPackage(fn.name)
	switch {
	case !isProgram(pkg):
		return "", pkg
	case strings.HasSuffix(fn.file, liveMetricsFile):
		return layerObs, pkg
	}
	if layer, ok := layerOf[pkg]; ok {
		return layer, pkg
	}
	return layerUnattributed, pkg
}

// onStack reports whether any frame of the sample lies in layer.
func onStack(p *cpuProfile, s profSample, layer string) bool {
	for _, loc := range s.locs {
		for _, fid := range p.locs[loc] {
			if l, _ := frameLayer(p.funcs[fid]); l == layer {
				return true
			}
		}
	}
	return false
}

// share returns the fraction of samples attributed to layer.
func (l *ledger) share(layer string) float64 { return l.frac(l.samples[layer]) }

// inclusiveShare returns the fraction of samples with layer on the stack.
func (l *ledger) inclusiveShare(layer string) float64 { return l.frac(l.inclusive[layer]) }

func (l *ledger) frac(n int64) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(n) / float64(l.total)
}

// unmappedPackages lists the program packages counted as unattributed.
func (l *ledger) unmappedPackages() []string {
	var out []string
	for pkg := range l.unmapped {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}
