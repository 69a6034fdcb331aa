package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"chicsim/internal/faults"
	"chicsim/internal/netsim"
)

var updateKernelGolden = flag.Bool("update-kernel-golden", false,
	"rewrite testdata/kernel_golden.json with hashes from the current kernel")

// kernelGoldenCases enumerates the runs whose Results the kernel must
// reproduce bit-for-bit: all 12 ES×DS combos of the paper's campaign, the
// max-min sharing ablation on a transfer-heavy cell, and two faulted runs
// (one per sharing policy) that exercise the flow-cancellation matrix and
// the same-timestamp cancel-race semantics PR 2 pinned, plus the adaptive
// feedback pair on a stale-GIS grid.
func kernelGoldenCases() (names []string, cfgs map[string]Config) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Sites = 6
		cfg.Users = 12
		cfg.Files = 30
		cfg.TotalJobs = 240
		cfg.RegionFanout = 3
		return cfg
	}
	cfgs = make(map[string]Config)
	for _, dsName := range PaperDatasetNames() {
		for _, esName := range PaperExternalNames() {
			cfg := base()
			cfg.ES, cfg.DS = esName, dsName
			cfgs[esName+"+"+dsName] = cfg
		}
	}
	maxmin := base()
	maxmin.ES, maxmin.DS = "JobLeastLoaded", "DataDoNothing" // transfer-heavy
	maxmin.Sharing = netsim.MaxMinFair
	cfgs["maxmin"] = maxmin

	faulted := base()
	faulted.Faults.SiteCrash = faults.Spec{MTBF: 4000, MTTR: 500}
	faulted.Faults.CEFailure = faults.Spec{MTBF: 6000, MTTR: 600}
	faulted.Faults.LinkDegrade = faults.Spec{MTBF: 5000, MTTR: 800}
	faulted.Faults.TransferAbort = faults.Spec{MTBF: 3000}
	faulted.Faults.ReplicaLoss = faults.Spec{MTBF: 5000}
	faulted.Faults.RequeueOnRecovery = true
	faulted.Faults.RestoreReplicas = true
	cfgs["faulted"] = faulted

	faultedMM := faulted
	faultedMM.Sharing = netsim.MaxMinFair
	cfgs["faulted-maxmin"] = faultedMM

	// Adaptive feedback pair on a contended (stale-GIS) grid: pins the
	// telemetry sampling cadence, EWMA arithmetic, and divert decisions.
	feedback := base()
	feedback.ES, feedback.DS = "JobFeedback", "DataFeedback"
	feedback.InfoStaleness = 120
	cfgs["feedback"] = feedback

	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, cfgs
}

func hashResults(t *testing.T, r Results) string {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestKernelGolden is the byte-identity regression for the simulation
// kernel: the hashes in testdata/kernel_golden.json pin the Results of the
// current kernel (4-ary event heap, lazily anchored netsim accounting), so
// any drift in event ordering, float arithmetic, or rng consumption fails
// here. A hash says only that a run changed, not that it is still right;
// the semantic oracles (netsim's eager reference model, TestPaperShapes)
// judge that. Regenerate with
//
//	go test ./internal/core -run TestKernelGolden -update-kernel-golden
//
// only when a change to Results is intended, reviewed, and passes those
// oracles.
func TestKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	names, cfgs := kernelGoldenCases()
	got := make(map[string]string, len(names))
	for _, name := range names {
		res, err := RunConfig(cfgs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "faulted" || name == "faulted-maxmin" {
			if res.Faults.FaultsInjected == 0 {
				t.Fatalf("%s: no faults injected; case exercises nothing", name)
			}
		}
		got[name] = hashResults(t, res)
	}

	path := filepath.Join("testdata", "kernel_golden.json")
	if *updateKernelGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d hashes", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-kernel-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for _, name := range names {
		if want[name] == "" {
			t.Errorf("%s: missing from golden file", name)
			continue
		}
		if got[name] != want[name] {
			t.Errorf("%s: Results hash %s, want %s — kernel changed simulation outcomes",
				name, got[name], want[name])
		}
	}
}
