// Command perfbench is the repository benchmark. It runs one workload
// through the simulator's public entry points for a fixed wall-clock
// budget, checks every simulation's output, and prints its metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time, steady
// ns/job, heap, wall time, per-simulation time); with -trace 1 they are
// the per-layer ledger from a CPU profile, a dispatch-timing Recorder and
// the Results counters. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md beside this file explains them. Build
// and run it with run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation measured.
type report struct {
	tally
	metrics map[string]metric
	lines   []string // human-readable detail, printed before the JSON line
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setTiming reports t's normalised median under name and prints its tail,
// count and raw median.
func (r *report) setTiming(name, unit string, t calibrated) {
	m := t.norm.median()
	r.set(name, unit, m)
	tail, label := t.norm.tail()
	r.printf("%-18s median %-11.6g %s=%-11.6g n=%-4d [%s]  raw median %.6g", name, m, label, tail, len(t.norm), unit, t.raw.median())
}

// endToEnd reports the campaign's end-to-end metrics from their samples.
// simTail is the per-campaign tail's median over campaigns.
func (r *report) endToEnd(setup, nsPerJob calibrated, heap timing, wall, simMs calibrated, simTail float64) {
	r.setTiming("setup_s", "s", setup)
	r.setTiming("ns_per_job", "ns", nsPerJob)
	r.set("heap_after_new_mb", "MB", heap.median())
	r.printf("%-18s median %-11.6g n=%-4d [MB]", "heap_after_new_mb", heap.median(), len(heap))
	r.setTiming("wall_s", "s", wall)
	r.setTiming("sim_ms_p50", "ms", simMs)
	r.set("sim_ms_tail", "ms", simTail)
}

// options are the command-line inputs shared by every workload.
type options struct {
	seed   uint64
	budget time.Duration // measuring time
	traced bool
}

var workloads = map[string]func(options) (*report, error){
	"scale-place":       func(o options) (*report, error) { return runScale(scalePlace, o) },
	"scale-fetch":       func(o options) (*report, error) { return runScale(scaleFetch, o) },
	"campaign-observed": runCampaign,
}

func main() {
	name := flag.String("workload", "", "workload to run: scale-place, scale-fetch or campaign-observed")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "wall-clock seconds to measure for")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds > 0, -trace 0 or 1\n", names)
		os.Exit(2)
	}
	o := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s seed %d trace %d\n", *name, *seed, *traceFlag)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	fmt.Printf("simulations attempted %d, failed %d (failed_frac %.4g)\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, why := range rep.reasons {
		fmt.Println("  FAILED", why)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
