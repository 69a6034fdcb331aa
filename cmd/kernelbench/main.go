// Command kernelbench runs the simulation-kernel benchmark suite (the same
// bodies `go test -bench` exercises in internal/desim, internal/netsim and
// the repo root) through testing.Benchmark and writes BENCH_kernel.json,
// so the kernel's performance trajectory is tracked across PRs without
// parsing go-test output.
//
//	kernelbench -o BENCH_kernel.json          # run and record
//	kernelbench -prev BENCH_kernel.json       # run, diff against a baseline
//	kernelbench -prev ... -gate 15            # also fail on >15% ns/op regressions
//	kernelbench -only SimScale                # run one sub-suite (substring match)
//	kernelbench -skip SimScale,ResultsMemory  # skip several sub-suites
//
// The ResultsMemory entries stream 1M synthetic jobs through the results
// pipeline in full and bounded mode; their live-results-bytes column
// tracks bounded mode's O(1) results memory (DESIGN.md §17).
//
// With -prev, a benchstat-style delta table is printed and each result
// carries baseline_ns_per_op/speedup fields, making regressions visible
// in both CI logs and the committed artifact. With -gate N, any benchmark
// whose ns/op regressed more than N% against the baseline fails the run
// with exit status 1 — the soft regression gate CI applies (override: the
// bench-regression-ok PR label, see DESIGN.md §18).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/kernelbench"
	"chicsim/internal/netsim"
)

type result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Extra       map[string]float64 `json:"extra,omitempty"`

	// Filled when -prev supplies a baseline containing the same name.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

type report struct {
	Suite     string   `json:"suite"`
	GoVersion string   `json:"go_version"`
	GOARCH    string   `json:"goarch"`
	Results   []result `json:"results"`
}

// suite enumerates the kernel benchmarks in a fixed order. Flow counts
// mirror the go-test wrappers so names line up across both harnesses.
func suite() []struct {
	name string
	body func(*testing.B)
} {
	out := []struct {
		name string
		body func(*testing.B)
	}{
		{"EngineChurn", kernelbench.EngineChurn},
		{"EngineStep", kernelbench.EngineStep},
	}
	for _, p := range []struct {
		label  string
		policy netsim.SharingPolicy
	}{{"ReflowEqualShare", netsim.EqualShare}, {"ReflowMaxMin", netsim.MaxMinFair}} {
		for _, flows := range []int{10, 100, 1000} {
			out = append(out, struct {
				name string
				body func(*testing.B)
			}{fmt.Sprintf("%s/flows=%d", p.label, flows), kernelbench.Reflow(p.policy, flows)})
		}
	}
	out = append(out, struct {
		name string
		body func(*testing.B)
	}{"Sim", kernelbench.Sim})
	for _, tier := range []struct {
		name string
		jobs int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		out = append(out, struct {
			name string
			body func(*testing.B)
		}{"SimScale/" + tier.name, kernelbench.SimScale(tier.jobs)})
	}
	for _, mode := range []string{core.ResultModeFull, core.ResultModeBounded} {
		out = append(out, struct {
			name string
			body func(*testing.B)
		}{"ResultsMemory/" + mode, kernelbench.ResultsMemory(mode, 1_000_000)})
	}
	return out
}

func main() {
	outPath := flag.String("o", "BENCH_kernel.json", "output JSON path")
	prevPath := flag.String("prev", "", "baseline BENCH_kernel.json to diff against")
	skipSim := flag.Bool("skip-sim", false, "skip the end-to-end Sim benchmark")
	only := flag.String("only", "", "run only benchmarks whose name contains this substring")
	skip := flag.String("skip", "", "skip benchmarks whose name contains one of these comma-separated substrings")
	gate := flag.Float64("gate", 0, "with -prev: exit 1 if any ns/op regresses more than this percent (0 disables)")
	flag.Parse()

	var baseline map[string]result
	if *prevPath != "" {
		buf, err := os.ReadFile(*prevPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kernelbench: read baseline: %v\n", err)
			os.Exit(1)
		}
		var prev report
		if err := json.Unmarshal(buf, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "kernelbench: parse baseline: %v\n", err)
			os.Exit(1)
		}
		baseline = make(map[string]result, len(prev.Results))
		for _, r := range prev.Results {
			baseline[r.Name] = r
		}
	}

	rep := report{Suite: "kernel", GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
	for _, bm := range suite() {
		if *skipSim && bm.name == "Sim" {
			continue
		}
		if *only != "" && !strings.Contains(bm.name, *only) {
			continue
		}
		if *skip != "" && containsAny(bm.name, *skip) {
			continue
		}
		br := testing.Benchmark(bm.body)
		r := result{
			Name:        bm.name,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Iterations:  br.N,
			Extra:       br.Extra,
		}
		if base, ok := baseline[bm.name]; ok && base.NsPerOp > 0 && r.NsPerOp > 0 {
			r.BaselineNsPerOp = base.NsPerOp
			r.Speedup = base.NsPerOp / r.NsPerOp
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-28s %12.1f ns/op %8d B/op %6d allocs/op", r.Name,
			r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		for k, v := range r.Extra {
			fmt.Printf("  %12.0f %s", v, k)
		}
		fmt.Println()
	}

	var regressions []string
	if baseline != nil {
		fmt.Printf("\n%-28s %14s %14s %9s\n", "name", "old ns/op", "new ns/op", "delta")
		for _, r := range rep.Results {
			if r.BaselineNsPerOp == 0 {
				continue
			}
			delta := (r.NsPerOp - r.BaselineNsPerOp) / r.BaselineNsPerOp * 100
			fmt.Printf("%-28s %14.1f %14.1f %+8.1f%%\n",
				r.Name, r.BaselineNsPerOp, r.NsPerOp, delta)
			if *gate > 0 && delta > *gate {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.1f -> %.1f ns/op (%+.1f%% > %.0f%%)",
						r.Name, r.BaselineNsPerOp, r.NsPerOp, delta, *gate))
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelbench: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "kernelbench: write %s: %v\n", *outPath, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d benchmarks)\n", *outPath, len(rep.Results))

	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nkernelbench: %d benchmark(s) regressed past the %.0f%% gate:\n", len(regressions), *gate)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		fmt.Fprintln(os.Stderr, "If the slowdown is intended and justified, apply the bench-regression-ok label (see DESIGN.md §18) or refresh the committed baseline.")
		os.Exit(1)
	}
}

// containsAny reports whether name contains any of the comma-separated
// substrings in list.
func containsAny(name, list string) bool {
	for _, sub := range strings.Split(list, ",") {
		if strings.Contains(name, sub) {
			return true
		}
	}
	return false
}
