package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

func controlPlaneCfg(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Sites = 6
	cfg.Users = 12
	cfg.Files = 30
	cfg.TotalJobs = 240
	cfg.RegionFanout = 3
	cfg.ObsInterval = 500
	return cfg
}

// TestControlPlaneDoesNotPerturbResults is the tentpole determinism
// regression: attaching the registry and the watchdog must leave every
// field of Results byte-identical to a bare run with the same
// ObsInterval.
func TestControlPlaneDoesNotPerturbResults(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		cfg := controlPlaneCfg(7)
		if faulted {
			cfg.Faults.SiteCrash.MTBF = 4000
			cfg.Faults.SiteCrash.MTTR = 500
			cfg.Faults.TransferAbort.MTBF = 3000
		}
		bare, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("faulted=%v bare: %v", faulted, err)
		}
		if faulted && bare.Faults.FaultsInjected == 0 {
			t.Fatal("faulted variant injected nothing; test exercises nothing")
		}

		attached := cfg
		attached.Metrics = registry.New()
		attached.Watchdog = watchdog.Fail
		wired, err := RunConfig(attached)
		if err != nil {
			t.Fatalf("faulted=%v wired: %v", faulted, err)
		}

		// Series pointers differ by construction. SimEvents counts every
		// engine event fired, including the observer's own recurring tick
		// — it is a meta-metric of engine activity (the baseline already
		// includes the probe layer's ticks), not a simulation outcome, so
		// it is excluded the same way.
		bare.Series, wired.Series = nil, nil
		bare.SimEvents, wired.SimEvents = 0, 0
		if wired.WatchdogViolations != 0 {
			t.Fatalf("faulted=%v: healthy run reported %d violations", faulted, wired.WatchdogViolations)
		}
		wired.WatchdogViolations = 0
		if !reflect.DeepEqual(bare, wired) {
			t.Errorf("faulted=%v: Results differ with control plane attached:\nbare:  %+v\nwired: %+v",
				faulted, bare, wired)
		}
	}
}

// TestRegistryPopulated checks the registry's totals against the run's
// own Results after a healthy run.
func TestRegistryPopulated(t *testing.T) {
	cfg := controlPlaneCfg(3)
	reg := registry.New()
	cfg.Metrics = reg
	r, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Value("sim_jobs_total", "done"); !ok || int(v) != cfg.TotalJobs {
		t.Errorf("sim_jobs_total{done} = %v, %v; want %d", v, ok, cfg.TotalJobs)
	}
	if v, ok := reg.Value("sim_jobs_total", "submitted"); !ok || int(v) != cfg.TotalJobs {
		t.Errorf("sim_jobs_total{submitted} = %v, %v; want %d", v, ok, cfg.TotalJobs)
	}
	if v, ok := reg.Value("sim_replications_total"); !ok || int(v) != r.Replications {
		t.Errorf("sim_replications_total = %v, %v; want %d", v, ok, r.Replications)
	}
	if v, ok := reg.Value("sim_virtual_time_seconds"); !ok || v != r.SimEndTime {
		t.Errorf("sim_virtual_time_seconds = %v, %v; want %v", v, ok, r.SimEndTime)
	}
	// The per-site response histograms must jointly hold every job.
	var total uint64
	for _, fam := range reg.Gather() {
		if fam.Name != "sim_response_seconds" {
			continue
		}
		for _, smp := range fam.Samples {
			total += smp.Hist.Count
		}
	}
	if total != uint64(cfg.TotalJobs) {
		t.Errorf("response histogram holds %d observations, want %d", total, cfg.TotalJobs)
	}
	// And the whole thing must render as valid exposition text.
	var sb strings.Builder
	if err := registry.WritePrometheus(&sb, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	if err := registry.CheckText(strings.NewReader(sb.String())); err != nil {
		t.Errorf("registry output not valid Prometheus text: %v", err)
	}
}

// TestWatchdogCatchesSeededViolation seeds a deliberate conservation bug
// (wdSkewDone shifts the done count inside the check) and asserts Fail
// mode aborts the run mid-flight with the violation as the error.
func TestWatchdogCatchesSeededViolation(t *testing.T) {
	cfg := controlPlaneCfg(5)
	cfg.Watchdog = watchdog.Fail
	var seen []watchdog.Violation
	cfg.OnViolation = func(v watchdog.Violation) { seen = append(seen, v) }
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.wdSkewDone = 1 // the seeded accounting bug
	r, err := sim.Run()
	if err == nil {
		t.Fatal("Run succeeded despite broken job accounting")
	}
	if !strings.Contains(err.Error(), "job_conservation") {
		t.Fatalf("error does not name the violated invariant: %v", err)
	}
	if r.Completed {
		t.Error("fail-fast run reported Completed")
	}
	if r.WatchdogViolations == 0 {
		t.Error("Results.WatchdogViolations is 0")
	}
	if len(seen) == 0 || seen[0].Check != "job_conservation" {
		t.Errorf("OnViolation observed %+v", seen)
	}
	// Fail-fast means early: the run must have stopped at the first obs
	// tick, long before the workload drained.
	if r.SimEndTime > cfg.ObsInterval*2 {
		t.Errorf("run continued to t=%v after the violation (ObsInterval %v)", r.SimEndTime, cfg.ObsInterval)
	}
}

// TestWatchdogWarnModeCompletes seeds the same bug in Warn mode: the run
// finishes, with the violations counted.
func TestWatchdogWarnModeCompletes(t *testing.T) {
	cfg := controlPlaneCfg(5)
	cfg.Watchdog = watchdog.Warn
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.wdSkewDone = 1
	r, err := sim.Run()
	if err != nil {
		t.Fatalf("Warn mode failed the run: %v", err)
	}
	if !r.Completed {
		t.Error("run did not complete")
	}
	if r.WatchdogViolations == 0 {
		t.Error("violations not counted in Warn mode")
	}
}

// seedReplicaDrift registers a phantom replica of the highest-numbered
// (least popular) file in the catalog at the first site whose store does
// not hold it, leaving every store untouched — the catalog/store
// disagreement replica_accounting exists to catch. A popular file would
// soon be fetched to that site for real, which heals the drift.
func seedReplicaDrift(t *testing.T, sim *Simulation) {
	t.Helper()
	f := storage.FileID(sim.cat.NumFiles() - 1)
	for i, st := range sim.sites {
		if !st.Store().Peek(f) {
			sim.cat.Register(f, topology.SiteID(i))
			return
		}
	}
	t.Fatalf("every site holds file %d; no room to seed drift", f)
}

// TestWatchdogCatchesReplicaDrift seeds catalog drift and asserts Fail
// mode aborts within one ObsInterval naming replica_accounting, while
// Warn mode completes with the violations counted.
func TestWatchdogCatchesReplicaDrift(t *testing.T) {
	cfg := controlPlaneCfg(5)
	cfg.Watchdog = watchdog.Fail
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedReplicaDrift(t, sim)
	r, err := sim.Run()
	if err == nil {
		t.Fatal("Run succeeded despite catalog/store replica drift")
	}
	if !strings.Contains(err.Error(), "replica_accounting") {
		t.Fatalf("error does not name the violated invariant: %v", err)
	}
	if r.SimEndTime > cfg.ObsInterval {
		t.Errorf("run continued to t=%v after the violation (ObsInterval %v)", r.SimEndTime, cfg.ObsInterval)
	}

	cfg.Watchdog = watchdog.Warn
	sim, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedReplicaDrift(t, sim)
	r, err = sim.Run()
	if err != nil {
		t.Fatalf("Warn mode failed the run: %v", err)
	}
	if !r.Completed || r.WatchdogViolations == 0 {
		t.Errorf("Warn mode: Completed %v, %d violations; want a completed run with violations",
			r.Completed, r.WatchdogViolations)
	}
}

// TestControlTickAllocatesNothing: once a run has grown the scratch
// buffers, a full control-plane tick — link-load refresh, gauge sync and
// every watchdog check — allocates nothing.
func TestControlTickAllocatesNothing(t *testing.T) {
	cfg := controlPlaneCfg(3)
	cfg.Metrics = registry.New()
	cfg.Watchdog = watchdog.Fail
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sim.controlTick(true); err != nil { // syncGauges + wd.Tick
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("control-plane tick allocated %v times", allocs)
	}
}

// BenchmarkWatchdogTick times one watchdog tick (link-load refresh plus
// every invariant check) over the catalog a finished run left behind, on
// the default 30-site grid and on the 1000-site grid of
// kernelbench.ScaleConfig. Replica accounting is one pass over the
// replica lists, so the cost follows replicas, not sites × files.
func BenchmarkWatchdogTick(b *testing.B) {
	for _, sites := range []int{30, 1000} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.TotalJobs = 2000
			if sites == 1000 { // kernelbench.ScaleConfig's grid
				cfg.Sites, cfg.RegionFanout, cfg.Users, cfg.Files = 1000, 25, 4000, 2000
				cfg.TotalJobs = 8000
			}
			cfg.ObsInterval = 600
			cfg.Watchdog = watchdog.Fail
			sim, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.controlTick(true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWatchdogHealthyFaultedRun runs the watchdog in Fail mode over a
// heavily faulted workload: the retry/requeue/re-replication paths must
// keep every invariant intact at every tick.
func TestWatchdogHealthyFaultedRun(t *testing.T) {
	cfg := controlPlaneCfg(11)
	cfg.Watchdog = watchdog.Fail
	cfg.Faults.SiteCrash.MTBF = 20000
	cfg.Faults.SiteCrash.MTTR = 2000
	cfg.Faults.CEFailure.MTBF = 15000
	cfg.Faults.CEFailure.MTTR = 1500
	cfg.Faults.LinkDegrade.MTBF = 15000
	cfg.Faults.LinkDegrade.MTTR = 2000
	cfg.Faults.TransferAbort.MTBF = 10000
	cfg.Faults.ReplicaLoss.MTBF = 10000
	r, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("watchdog tripped on a correct (faulted) run: %v", err)
	}
	if r.Faults.FaultsInjected == 0 {
		t.Fatal("fault config injected nothing; test exercises nothing")
	}
	if r.WatchdogViolations != 0 {
		t.Errorf("%d violations on a correct run", r.WatchdogViolations)
	}
}

// TestConfigValidatesControlPlane: registry/watchdog without an obs tick
// is a config error, not a silent no-op.
func TestConfigValidatesControlPlane(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = registry.New()
	if err := cfg.Validate(); err == nil {
		t.Error("Metrics without ObsInterval passed validation")
	}
	cfg = DefaultConfig()
	cfg.Watchdog = watchdog.Warn
	if err := cfg.Validate(); err == nil {
		t.Error("Watchdog without ObsInterval passed validation")
	}
}
