package core

import (
	"fmt"
	"math"

	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/topology"
)

// This file wires the live control plane (internal/obs/registry,
// internal/obs/watchdog) into the simulation: counter hooks on the job
// lifecycle, gauges synced on the ObsInterval tick, per-site response
// histograms, and the online invariant checks.
//
// Determinism: every registry update is commutative arithmetic on values
// the simulation already maintains; nothing here schedules extra events
// beyond the single recurring obs tick, draws random numbers, or is read
// back by scheduling code. The watchdog checks are read-only over
// simulation state. A run with metrics + watchdog attached therefore
// produces byte-identical Results to a run without them (regression
// test: TestControlPlaneDoesNotPerturbResults).

// respBuckets are the upper bounds (seconds) of the per-site response
// histograms. Roughly geometric around the paper's ~300–600 s job scale.
var respBuckets = []float64{60, 120, 300, 600, 1200, 2400, 4800, 9600, 19200, 38400, 76800}

// simMetrics holds the registry handles one simulation updates. All
// handle types are no-ops in their zero value, so hook sites need no
// enable checks; the per-site slices are nil when metrics are off and
// guarded at their (few) call sites.
type simMetrics struct {
	jobsSubmitted registry.Counter
	jobsDone      registry.Counter
	jobsRetried   registry.Counter
	jobsAbandoned registry.Counter
	dispatches    registry.Counter
	replications  registry.Counter

	jobsRunning     registry.Gauge
	jobsQueued      registry.Gauge
	jobsDataWaiting registry.Gauge
	inflightFlows   registry.Gauge
	sitesDown       registry.Gauge
	virtualTime     registry.Gauge
	linkLoadMax     registry.Gauge
	linkBacklog     registry.Gauge

	faultsByClass *registry.CounterVec

	queueDepth  []registry.Gauge     // per site
	busyCEs     []registry.Gauge     // per site
	storageUsed []registry.Gauge     // per site
	replicas    []registry.Gauge     // per site
	respBySite  []registry.Histogram // per site
}

// registerMetrics registers (idempotently) the standard metric families
// on cfg.Metrics and binds this simulation's handles. Under a campaign,
// many concurrent simulations share one registry: counters and
// histograms merge deterministically (the updates commute); gauges are
// last-write-wins across workers and meaningful mainly for single-run
// monitoring.
func (s *Simulation) registerMetrics(reg *registry.Registry) {
	jobs := reg.Counter("sim_jobs_total",
		"Job lifecycle transitions by state.", "state")
	s.lm.jobsSubmitted = jobs.With("submitted")
	s.lm.jobsDone = jobs.With("done")
	s.lm.jobsRetried = jobs.With("retried")
	s.lm.jobsAbandoned = jobs.With("abandoned")
	s.lm.dispatches = reg.Counter("sim_dispatches_total",
		"Jobs handed to a site by the external/batch scheduler.").With()
	s.lm.replications = reg.Counter("sim_replications_total",
		"Dataset-scheduler replica pushes issued.").With()

	s.lm.jobsRunning = reg.Gauge("sim_jobs_running",
		"Jobs occupying a compute element right now.").With()
	s.lm.jobsQueued = reg.Gauge("sim_jobs_queued",
		"Jobs waiting in site queues.").With()
	s.lm.jobsDataWaiting = reg.Gauge("sim_jobs_data_waiting",
		"Queued jobs still waiting on at least one input transfer.").With()
	s.lm.inflightFlows = reg.Gauge("sim_inflight_transfers",
		"Wide-area transfers currently moving bytes.").With()
	s.lm.sitesDown = reg.Gauge("sim_sites_down",
		"Sites currently crashed.").With()
	s.lm.virtualTime = reg.Gauge("sim_virtual_time_seconds",
		"Current virtual time of the simulation.").With()
	s.lm.linkLoadMax = reg.Gauge("sim_link_load_max_frac",
		"Most loaded link: sum of flow rates over effective bandwidth.").With()
	s.lm.linkBacklog = reg.Gauge("sim_link_backlog_bytes",
		"Bytes still to deliver, summed over links crossed.").With()

	s.lm.faultsByClass = reg.Counter("sim_faults_total",
		"Faults applied and repairs completed, by class.", "class")

	qd := reg.Gauge("sim_queue_depth", "Jobs queued at the site.", "site")
	bc := reg.Gauge("sim_busy_ces", "Busy compute elements at the site.", "site")
	su := reg.Gauge("sim_storage_used_bytes", "Bytes resident at the site.", "site")
	rc := reg.Gauge("sim_replicas", "Files resident at the site.", "site")
	rh := reg.Histogram("sim_response_seconds",
		"Job response time (submit to completion).", respBuckets, "site")
	n := len(s.sites)
	s.lm.queueDepth = make([]registry.Gauge, n)
	s.lm.busyCEs = make([]registry.Gauge, n)
	s.lm.storageUsed = make([]registry.Gauge, n)
	s.lm.replicas = make([]registry.Gauge, n)
	s.lm.respBySite = make([]registry.Histogram, n)
	for i := 0; i < n; i++ {
		sv := fmt.Sprintf("%d", i)
		s.lm.queueDepth[i] = qd.With(sv)
		s.lm.busyCEs[i] = bc.With(sv)
		s.lm.storageUsed[i] = su.With(sv)
		s.lm.replicas[i] = rc.With(sv)
		s.lm.respBySite[i] = rh.With(sv)
	}
}

// syncGauges publishes the current grid state into the registry. Runs on
// the ObsInterval tick, after controlTick refreshed s.linkLoads; all
// other reads are the same accessors the probe layer already uses.
func (s *Simulation) syncGauges() {
	running, queued, waiting, down := 0, 0, 0, 0
	for i, st := range s.sites {
		b, q := st.Busy(), st.QueueLen()
		running += b
		queued += q
		waiting += st.DataWaitingJobs()
		if st.Down() {
			down++
		}
		s.lm.queueDepth[i].Set(float64(q))
		s.lm.busyCEs[i].Set(float64(b))
		s.lm.storageUsed[i].Set(st.Store().Used())
		s.lm.replicas[i].Set(float64(st.Store().Len()))
	}
	s.lm.jobsRunning.Set(float64(running))
	s.lm.jobsQueued.Set(float64(queued))
	s.lm.jobsDataWaiting.Set(float64(waiting))
	s.lm.inflightFlows.Set(float64(s.net.ActiveFlows()))
	s.lm.sitesDown.Set(float64(down))
	s.lm.virtualTime.Set(float64(s.eng.Now()))

	maxFrac, backlog := 0.0, 0.0
	for l, load := range s.linkLoads {
		if bw := s.net.EffectiveBandwidth(topology.LinkID(l)); bw > 0 {
			if frac := load / bw; frac > maxFrac {
				maxFrac = frac
			}
		}
	}
	s.linkBacklog = s.net.LinkBacklogBytes(s.linkBacklog)
	for _, b := range s.linkBacklog {
		backlog += b
	}
	s.lm.linkLoadMax.Set(maxFrac)
	s.lm.linkBacklog.Set(backlog)
}

// registerWatchdog installs the invariant checks on s.wd. Every check is
// a read-only closure over simulation state, evaluated between events on
// the obs tick.
func (s *Simulation) registerWatchdog() {
	s.wd.Register("job_conservation", func() string {
		// Between events, every submitted job is in exactly one place:
		// batch buffer, a site queue, a compute element, awaiting a retry
		// backoff, completed, or abandoned.
		queued, running := 0, 0
		for _, st := range s.sites {
			queued += st.QueueLen()
			running += st.Busy()
		}
		done := s.jobsDone + s.wdSkewDone // wdSkewDone is a test-only fault seed
		accounted := done + s.jobsFailed + queued + running + len(s.batchBuf) + s.retryPending
		if accounted != s.jobsSubmitted {
			return fmt.Sprintf("submitted %d != accounted %d (done %d, abandoned %d, queued %d, running %d, batched %d, retry-pending %d)",
				s.jobsSubmitted, accounted, done, s.jobsFailed, queued, running, len(s.batchBuf), s.retryPending)
		}
		return ""
	})
	var counts []int // per-site replica counts, allocated on the first tick
	s.wd.Register("replica_accounting", func() string {
		// The grid-wide catalog and each site's own store must agree on
		// what is resident where (transient staging is registered in
		// neither). The counts are recomputed from the catalog's replica
		// lists on every tick, in one O(replicas) pass.
		if counts == nil {
			counts = make([]int, len(s.sites))
		}
		s.cat.CountBySite(counts)
		for i, st := range s.sites {
			if cat, res := counts[i], st.Store().Len(); cat != res {
				return fmt.Sprintf("site %d: catalog says %d replicas, store holds %d", i, cat, res)
			}
		}
		return ""
	})
	s.wd.Register("storage_capacity", func() string {
		if s.cfg.StorageGB <= 0 {
			return ""
		}
		capBytes := s.cfg.StorageGB * 1e9
		for i, st := range s.sites {
			if used := st.Store().Used(); used > capBytes*(1+1e-9) {
				return fmt.Sprintf("site %d: %.0f bytes resident exceeds capacity %.0f", i, used, capBytes)
			}
		}
		return ""
	})
	s.wd.Register("link_capacity", func() string {
		for l, load := range s.linkLoads {
			bw := s.net.EffectiveBandwidth(topology.LinkID(l))
			if load > bw*(1+1e-6)+1e-6 {
				return fmt.Sprintf("link %d: flow rates sum to %.0f B/s over capacity %.0f B/s", l, load, bw)
			}
		}
		return ""
	})
	s.wd.Register("counters_monotone", func() string {
		if s.jobsDone < 0 || s.jobsFailed < 0 || s.retryPending < 0 {
			return fmt.Sprintf("negative ledger: done %d, abandoned %d, retry-pending %d",
				s.jobsDone, s.jobsFailed, s.retryPending)
		}
		if math.IsNaN(float64(s.eng.Now())) {
			return "virtual time is NaN"
		}
		return ""
	})
}

// attachControlPlane books the single recurring obs tick that syncs
// gauges and runs the watchdog. Called from Run when either is enabled.
func (s *Simulation) attachControlPlane() {
	s.eng.Every(s.cfg.ObsInterval, func() bool {
		if s.finished {
			return false
		}
		if err := s.controlTick(true); err != nil {
			s.wdErr = err
			s.eng.Stop()
			return false
		}
		return true
	})
}

// controlTick is one control-plane pass: refresh the link loads the
// gauges and the link_capacity check share, sync the gauges, and (when
// check is set) run the watchdog. A run with neither gauges nor a
// watchdog does no work here. It allocates nothing once the scratch
// buffers exist (TestControlTickAllocatesNothing).
func (s *Simulation) controlTick(check bool) error {
	if !s.lmOn && s.wd == nil {
		return nil
	}
	s.linkLoads = s.net.LinkLoads(s.linkLoads)
	if s.lmOn {
		s.syncGauges()
	}
	if s.wd == nil || !check {
		return nil
	}
	return s.wd.Tick(float64(s.eng.Now()))
}

// finishControlPlane runs one final gauge sync + watchdog pass at the end
// of the run (the Every tick stops with the workload, so without this the
// registry would be one interval stale) and records the violation count.
// A run the watchdog already failed gets the gauge sync only.
func (s *Simulation) finishControlPlane(r *Results) {
	if err := s.controlTick(s.wdErr == nil); err != nil {
		s.wdErr = err
	}
	if s.wd != nil {
		r.WatchdogViolations = s.wd.Count()
	}
}

// newWatchdog builds the simulation's watchdog from the config.
func newWatchdog(cfg Config) *watchdog.Watchdog {
	if cfg.Watchdog == watchdog.Off {
		return nil
	}
	return watchdog.New(watchdog.Config{Mode: cfg.Watchdog, OnViolation: cfg.OnViolation})
}
