package core

import (
	"fmt"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/faults"
	"chicsim/internal/gis"
	"chicsim/internal/job"
	"chicsim/internal/metrics"
	"chicsim/internal/netsim"
	"chicsim/internal/obs"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/scheduler/feedback"
	"chicsim/internal/site"
	"chicsim/internal/stats"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
	"chicsim/internal/trace"
	"chicsim/internal/workload"
)

// maxBoundedSeriesPoints caps Results.Series under ResultModeBounded: the
// probe registry downsamples through a stride-doubling window instead of
// growing one Point per tick (see obs.Registry.LimitPoints).
const maxBoundedSeriesPoints = 512

// Results are the outputs of one Data Grid execution (DGE).
type Results struct {
	metrics.Results

	ES, LS, DS    string
	Seed          uint64
	BandwidthMBps float64

	TotalCEs       int
	Completed      bool // false when MaxTime aborted the run
	CacheHits      int
	CacheMisses    int
	Evictions      int
	FetchesStarted int
	Replications   int // DS pushes actually issued
	DSDeletions    int // DS-initiated replica deletions (DSDeleteAfter)
	SimEvents      uint64
	SimEndTime     float64 // virtual time when the engine drained

	// SiteJobGini measures how unevenly completed jobs concentrated over
	// sites (0 = even, →1 = one hotspot). High values under
	// JobDataPresent without replication are the paper's hotspot effect.
	SiteJobGini float64

	// Link utilization over the run (fraction of time each link carried
	// at least one transfer), split by tier.
	MeanLinkUtil     float64
	MaxLinkUtil      float64
	BackboneLinkUtil float64 // mean over root↔region links
	AccessLinkUtil   float64 // mean over region↔site links

	// Samples holds periodic grid snapshots when Config.SampleInterval
	// is set (see report.Heatmap).
	Samples []Sample

	// Series holds the observability probe time series when
	// Config.ObsInterval is set (see report.SeriesCSV). Excluded from
	// JSON results; render it with the report package instead.
	Series *obs.Series `json:"-"`

	// WatchdogViolations counts online invariant violations observed by
	// the watchdog over the run (0 when the watchdog is off or the run
	// was healthy; see Config.Watchdog).
	WatchdogViolations int `json:"watchdog_violations,omitempty"`

	// Fault-injection outcome (all zero on failure-free runs). Faults
	// counts what the injector did to the grid; the recovery counters
	// record what the scheduling layers did about it.
	Faults             faults.Stats
	JobsRetried        int // ES resubmissions of failed jobs
	JobsFailed         int // jobs abandoned after exhausting retries
	TransfersRestarted int // input fetches re-issued after an abort/crash
	ReplicasRestored   int // DS re-replications of fault-lost popular files
}

// Sample is one periodic snapshot of grid state.
type Sample struct {
	T           float64   // virtual time
	SiteBusy    []float64 // per-site fraction of compute elements busy
	QueuedJobs  int       // jobs waiting across all sites
	ActiveFlows int       // in-flight wide-area transfers
}

// Simulation is a fully assembled Data Grid ready to Run. Build with New;
// a Simulation is single-use.
type Simulation struct {
	cfg  Config
	eng  *desim.Engine
	topo *topology.Topology
	net  *netsim.Network
	cat  *catalog.Catalog
	gis  *gis.Service
	wl   *workload.Workload

	sites []*site.Site
	esFor []scheduler.External // indexed by user
	dsch  scheduler.Dataset

	batch    scheduler.Batch // non-nil in batch-scheduling mode
	batchBuf []*job.Job      // submissions awaiting the next batch window

	collector *metrics.Collector
	view      scheduler.GridView

	jobs *job.Store // slab job storage; slots recycle at completion

	// Prebuilt callbacks for the recurring engine events, so the steady
	// state schedules without allocating a closure per event.
	submitFns []func()    // per user: closed-loop submitNext
	arriveFns []func()    // per user: open-model submit + rebook
	dsWakeFns []func()    // per site: dsWake
	fetchPool []*fetchRec // recycled mover fetch-completion records

	nextJob      []int // per-user index of next job to submit
	jobsDone     int
	totalJobs    int
	finished     bool
	busyIntegral float64
	totalCEs     int

	pushesInFlight map[pushKey]bool
	replications   int
	dsDeletions    int
	dispatches     int // ES/batch dispatch hook-point counter

	probes      *obs.Registry            // nil unless cfg.ObsInterval > 0
	idleWindows []map[storage.FileID]int // per site: consecutive access-free DS windows

	// Feedback-scheduling telemetry (see internal/scheduler/feedback).
	// Nil unless a feedback policy is configured; all hooks are nil-safe.
	fb       *feedback.Tracker
	fbParams feedback.Params

	// Live control plane (see livemetrics.go). lm's handles are no-ops
	// when lmOn is false; wd is nil when the watchdog is off.
	lm            simMetrics
	lmOn          bool
	wd            *watchdog.Watchdog
	wdErr         error
	jobsSubmitted int // jobs entered into the system (the conservation ledger's left side)
	retryPending  int // failed jobs waiting out a retry backoff
	wdSkewDone    int // test hook: seeds a deliberate conservation violation

	// Control-plane per-link scratch, grown on the first obs tick and
	// overwritten by every tick: the gauges and the link_capacity check
	// share linkLoads; linkBacklog feeds the backlog gauge.
	linkLoads, linkBacklog []float64

	// Fault injection (see faults.go in this package). All nil/zero
	// unless cfg.Faults enables at least one fault class.
	fcfg               faults.Config // normalized
	retry              faults.RetryPolicy
	faultRoot          *rng.Source
	injector           *faults.Injector
	liveFlows          map[int]*managedFlow      // in-flight transfers, by flow id
	lostAt             [][]scheduler.PopularFile // per site: popular replicas lost to faults
	jobsFailed         int
	jobsRetried        int
	transfersRestarted int
	replicasRestored   int

	rec trace.Recorder

	arrivalSrc *rng.Source // think-time / open-arrival draws
	samples    []Sample

	ran bool
}

type pushKey struct {
	file   storage.FileID
	target topology.SiteID
}

// mover implements site.DataMover over the network, attributing traffic to
// job-driven fetches and crediting the source site's popularity tracker.
type mover struct{ s *Simulation }

func (m mover) Fetch(f storage.FileID, from, to topology.SiteID, requester job.ID, done func()) {
	size, ok := m.s.cat.Size(f)
	if !ok {
		panic(fmt.Sprintf("core: fetch of undefined file %d", f))
	}
	if from != to {
		m.s.sites[from].RecordRemoteRequest(f, to)
		m.s.rec.Record(trace.Event{
			T: m.s.eng.Now(), Kind: trace.FetchStart,
			Job: int(requester), File: int(f), Src: int(from), Dst: int(to),
		})
	}
	fl := m.s.net.Transfer(from, to, size, m.s.newFetchRec(f, from, to, requester, size, done).fn)
	m.s.trackFlow(fl, fetchFlow, f, from, to)
}

// fetchRec is a pooled fetch-completion record: it replaces the per-fetch
// closure mover.Fetch used to allocate. The fn closure is built once per
// record and captures only the record, which self-releases to the pool
// before running the completion logic (so cascading fetches can reuse it).
// Records on flows that get cancelled are simply dropped to the GC — the
// same cost the old closure paid.
type fetchRec struct {
	s         *Simulation
	f         storage.FileID
	from, to  topology.SiteID
	requester job.ID
	size      float64
	done      func()
	fn        func(*netsim.Flow)
}

func (s *Simulation) newFetchRec(f storage.FileID, from, to topology.SiteID, requester job.ID, size float64, done func()) *fetchRec {
	var r *fetchRec
	if n := len(s.fetchPool); n > 0 {
		r = s.fetchPool[n-1]
		s.fetchPool[n-1] = nil
		s.fetchPool = s.fetchPool[:n-1]
	} else {
		r = &fetchRec{s: s}
		r.fn = func(fl *netsim.Flow) { r.finish(fl) }
	}
	r.f, r.from, r.to, r.requester, r.size, r.done = f, from, to, requester, size, done
	return r
}

func (r *fetchRec) finish(fl *netsim.Flow) {
	s, f, from, to, requester, size, done := r.s, r.f, r.from, r.to, r.requester, r.size, r.done
	r.done = nil
	s.fetchPool = append(s.fetchPool, r)
	s.untrackFlow(fl)
	if from != to {
		s.collector.Transfer(metrics.FetchTransfer, size)
		s.rec.Record(trace.Event{
			T: s.eng.Now(), Kind: trace.FetchEnd,
			Job: int(requester), File: int(f), Src: int(from), Dst: int(to), Bytes: size,
		})
	}
	done()
}

// view adapts the GIS + network to the scheduler.GridView interface. When
// regional information scoping is on, viewer (-1 = global) restricts the
// replica view to that site's region plus master locations.
type view struct {
	s      *Simulation
	viewer topology.SiteID
}

func (v view) NumSites() int                { return v.s.topo.NumSites() }
func (v view) Load(sid topology.SiteID) int { return v.s.gis.Load(sid) }
func (v view) CEs(sid topology.SiteID) int  { return v.s.sites[sid].CEs() }
func (v view) Replicas(f storage.FileID) []topology.SiteID {
	if v.viewer >= 0 {
		return v.s.gis.ReplicasVisibleTo(f, v.viewer)
	}
	return v.s.gis.Replicas(f)
}
func (v view) HasReplica(f storage.FileID, sid topology.SiteID) bool {
	if v.viewer >= 0 {
		for _, r := range v.s.gis.ReplicasVisibleTo(f, v.viewer) {
			if r == sid {
				return true
			}
		}
		return false
	}
	return v.s.gis.HasReplica(f, sid)
}
func (v view) FileSize(f storage.FileID) float64 { return v.s.gis.FileSize(f) }
func (v view) Topology() *topology.Topology      { return v.s.topo }
func (v view) Congestion(a, b topology.SiteID) int {
	return v.s.net.CongestionOn(a, b)
}
func (v view) PredictTransfer(a, b topology.SiteID, size float64) float64 {
	return v.s.net.PredictTime(a, b, size)
}

// New assembles a simulation from the config.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:            cfg,
		eng:            desim.New(),
		cat:            catalog.New(),
		pushesInFlight: make(map[pushKey]bool),
		rec:            cfg.Recorder,
	}
	if s.rec == nil {
		s.rec = trace.Discard
	}
	root := rng.New(cfg.Seed)
	if cfg.ResultMode == ResultModeBounded {
		// The reservoir draws from its own derived sub-stream; Derive does
		// not perturb root, so every other named stream below is identical
		// to full mode.
		s.collector = metrics.NewBounded(root.Derive("results"))
	} else {
		s.collector = metrics.NewCollector()
	}

	var err error
	if len(cfg.Tiers) > 0 {
		bws := []float64{cfg.BandwidthMBps * 1e6}
		if len(cfg.TierBandwidthsMBps) > 0 {
			bws = bws[:0]
			for _, b := range cfg.TierBandwidthsMBps {
				bws = append(bws, b*1e6)
			}
		}
		s.topo, err = topology.NewTiered(cfg.Tiers, bws)
	} else {
		s.topo, err = topology.NewHierarchical(topology.Config{
			Sites:             cfg.Sites,
			RegionFanout:      cfg.RegionFanout,
			Bandwidth:         cfg.BandwidthMBps * 1e6,
			BackboneBandwidth: cfg.BackboneMBps * 1e6,
		}, root.Derive("topology"))
	}
	if err != nil {
		return nil, err
	}
	s.net = netsim.New(s.eng, s.topo, cfg.Sharing)
	if cfg.LatencyMsPerHop > 0 {
		s.net.SetLatencyPerHop(cfg.LatencyMsPerHop / 1000)
	}

	if cfg.Trace != nil {
		s.wl = cfg.Trace
	} else {
		s.wl, err = workload.Generate(cfg.WorkloadSpec(), root.Derive("workload"))
		if err != nil {
			return nil, err
		}
	}
	s.totalJobs = s.wl.TotalJobs()
	for f, size := range s.wl.FileSizes {
		if err := s.cat.DefineFile(storage.FileID(f), size); err != nil {
			return nil, err
		}
	}

	lsched, err := NewLocal(cfg.LS)
	if err != nil {
		return nil, err
	}
	ceSrc := root.Derive("ces")
	speedSrc := root.Derive("speeds")
	s.sites = make([]*site.Site, cfg.Sites)
	for i := range s.sites {
		ces := ceSrc.IntRange(cfg.MinCEs, cfg.MaxCEs)
		s.totalCEs += ces
		speed := 1.0
		if cfg.CPUSpreadFrac > 0 {
			speed = speedSrc.Range(1-cfg.CPUSpreadFrac, 1+cfg.CPUSpreadFrac)
		}
		sid := topology.SiteID(i)
		s.sites[i], err = site.New(s.eng, s.topo, s.cat, mover{s}, lsched, site.Config{
			ID:       sid,
			CEs:      ces,
			Speed:    speed,
			Capacity: cfg.StorageGB * 1e9,
			OnEvict: func(f storage.FileID) {
				s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.Evicted, File: int(f), Site: int(sid)})
			},
		}, s.jobDone)
		if err != nil {
			return nil, err
		}
	}
	for f, master := range s.wl.MasterSite {
		if err := s.sites[master].InstallMaster(storage.FileID(f), s.wl.FileSizes[f]); err != nil {
			return nil, err
		}
	}

	s.gis = gis.New(s.eng, s.cat, s.topo, func(sid topology.SiteID) int {
		return s.sites[sid].QueueLen()
	}, cfg.InfoStaleness)
	for f, master := range s.wl.MasterSite {
		s.gis.SetMaster(storage.FileID(f), master)
	}
	s.view = view{s: s, viewer: -1}

	if cfg.ES == "JobFeedback" || cfg.DS == "DataFeedback" {
		s.fbParams = cfg.Feedback
		s.fbParams.Normalize()
		s.fb = feedback.NewTracker(s.fbParams, s.topo, s.eng.Now)
	}

	avgCompute := cfg.ComputePerGB * (cfg.MinFileGB + cfg.MaxFileGB) / 2 * float64(cfg.InputsPerJob)
	avgCEs := float64(cfg.MinCEs+cfg.MaxCEs) / 2
	s.esFor = make([]scheduler.External, cfg.Users)
	esRoot := root.Derive("es")
	switch cfg.Mapping {
	case ESPerSite:
		perSite := make([]scheduler.External, cfg.Sites)
		for i := range perSite {
			perSite[i], err = NewExternal(cfg.ES, esRoot.Derive(fmt.Sprintf("site-%d", i)), avgCompute, avgCEs)
			if err != nil {
				return nil, err
			}
			s.wireFeedback(perSite[i])
		}
		for u := range s.esFor {
			s.esFor[u] = perSite[s.wl.UserHome[u]]
		}
	case ESCentral:
		central, err := NewExternal(cfg.ES, esRoot.Derive("central"), avgCompute, avgCEs)
		if err != nil {
			return nil, err
		}
		s.wireFeedback(central)
		for u := range s.esFor {
			s.esFor[u] = hostedES{inner: central, host: 0}
		}
	case ESPerUser:
		for u := range s.esFor {
			s.esFor[u], err = NewExternal(cfg.ES, esRoot.Derive(fmt.Sprintf("user-%d", u)), avgCompute, avgCEs)
			if err != nil {
				return nil, err
			}
			s.wireFeedback(s.esFor[u])
		}
	default:
		return nil, fmt.Errorf("core: unknown ES mapping %v", cfg.Mapping)
	}

	s.dsch, err = NewDataset(cfg.DS, root.Derive("ds"))
	if err != nil {
		return nil, err
	}
	if fds, ok := s.dsch.(*feedback.DS); ok {
		fds.Tracker = s.fb
		fds.Params = s.fbParams
	}
	if cfg.BatchES != "" {
		s.batch, err = NewBatch(cfg.BatchES, avgCompute)
		if err != nil {
			return nil, err
		}
	}

	s.fcfg = cfg.Faults.Normalized()
	s.retry = cfg.Faults.Retry()
	if s.fcfg.Enabled() {
		s.faultRoot = root.Derive("faults")
		s.liveFlows = make(map[int]*managedFlow)
		s.lostAt = make([][]scheduler.PopularFile, cfg.Sites)
		// Every ES gains the retry contract: never re-place a job on the
		// site it just failed on. Fresh jobs pass through untouched, and
		// Derive leaves the parent stream unperturbed, so a failure-free
		// workload is byte-identical with or without the wrapper.
		retrySrc := esRoot.Derive("retry")
		for u := range s.esFor {
			s.esFor[u] = es.AvoidFailed{Inner: s.esFor[u], Src: retrySrc}
		}
	}

	s.nextJob = make([]int, cfg.Users)
	s.arrivalSrc = root.Derive("arrivals")
	s.jobs = job.NewStore()
	s.submitFns = make([]func(), cfg.Users)
	s.arriveFns = make([]func(), cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		uid := job.UserID(u)
		s.submitFns[u] = func() { s.submitNext(uid) }
		s.arriveFns[u] = func() { s.submitNext(uid); s.scheduleArrival(uid) }
	}
	s.dsWakeFns = make([]func(), cfg.Sites)
	for i := range s.dsWakeFns {
		i := i
		s.dsWakeFns[i] = func() { s.dsWake(i) }
	}
	if cfg.ObsInterval > 0 {
		s.probes = obs.NewRegistry()
		s.registerProbes()
		s.probes.StreamTo(cfg.ObsSink)
		if cfg.ResultMode == ResultModeBounded {
			// Bounded results extend to the probe series: cap it at a
			// fixed point budget via the stride-doubling window. A sink
			// still streams every raw sample.
			s.probes.LimitPoints(maxBoundedSeriesPoints)
		}
	}
	if cfg.Metrics != nil {
		s.lmOn = true
		s.registerMetrics(cfg.Metrics)
	}
	if s.wd = newWatchdog(cfg); s.wd != nil {
		s.registerWatchdog()
	}
	return s, nil
}

// wireFeedback attaches the simulation's telemetry tracker and feedback
// params to a freshly constructed feedback ES (a no-op for every other
// policy, and for feedback instances on runs without a tracker).
func (s *Simulation) wireFeedback(e scheduler.External) {
	if fes, ok := e.(*feedback.ES); ok {
		fes.Tracker = s.fb
		fes.Params = s.fbParams
	}
}

// telemetry assembles one feedback tracker sample from live state (not
// the GIS snapshot). Strictly read-only: netsim's projections write no
// state, so sampling perturbs nothing but the engine's event count.
func (s *Simulation) telemetry() feedback.Sample {
	q := make([]int, len(s.sites))
	for i, st := range s.sites {
		q[i] = st.QueueLen()
	}
	return feedback.Sample{
		Now:          s.eng.Now(),
		QueueLens:    q,
		LinkLoads:    s.net.LinkLoads(nil),
		LinkBacklog:  s.net.LinkBacklogBytes(nil),
		LinkCapacity: s.net.EffectiveBandwidths(),
		GISAge:       s.gis.SnapshotAge(),
	}
}

// registerProbes installs the standard probe set. Registration order is
// fixed (grid-wide first, then per-site) so series columns are stable
// across runs and the output is byte-comparable.
func (s *Simulation) registerProbes() {
	r := s.probes
	r.Counter("jobs_done", func() float64 { return float64(s.jobsDone) })
	r.Counter("dispatches", func() float64 { return float64(s.dispatches) })
	r.Counter("replications", func() float64 { return float64(s.replications) })
	r.Counter("ds_deletions", func() float64 { return float64(s.dsDeletions) })
	r.Counter("evictions", func() float64 {
		n := 0
		for _, st := range s.sites {
			n += st.Store().Evictions()
		}
		return float64(n)
	})
	r.Gauge("jobs_running", func() float64 {
		n := 0
		for _, st := range s.sites {
			n += st.Busy()
		}
		return float64(n)
	})
	r.Gauge("jobs_queued", func() float64 {
		n := 0
		for _, st := range s.sites {
			n += st.QueueLen()
		}
		return float64(n)
	})
	r.Gauge("inflight_transfers", func() float64 { return float64(s.net.ActiveFlows()) })
	r.Gauge("gis_staleness_s", func() float64 { return s.gis.SnapshotAge() })
	if s.fcfg.Enabled() {
		// Fault probes register only on faulted runs, keeping the default
		// column set (and its regression tests) untouched. The injector is
		// attached in Run, before the first sample can fire.
		r.Counter("faults_injected", func() float64 {
			if s.injector == nil {
				return 0
			}
			return float64(s.injector.Stats().FaultsInjected)
		})
		r.Counter("faults_repaired", func() float64 {
			if s.injector == nil {
				return 0
			}
			return float64(s.injector.Stats().Repairs)
		})
		r.Counter("jobs_retried", func() float64 { return float64(s.jobsRetried) })
		r.Counter("jobs_failed", func() float64 { return float64(s.jobsFailed) })
		r.Counter("transfers_restarted", func() float64 { return float64(s.transfersRestarted) })
		r.Counter("replicas_lost", func() float64 {
			if s.injector == nil {
				return 0
			}
			return float64(s.injector.Stats().ReplicasLost)
		})
		r.Counter("replicas_restored", func() float64 { return float64(s.replicasRestored) })
		r.Gauge("sites_down", func() float64 {
			n := 0
			for _, st := range s.sites {
				if st.Down() {
					n++
				}
			}
			return float64(n)
		})
		r.Gauge("ces_failed", func() float64 {
			n := 0
			for _, st := range s.sites {
				n += st.CEs() - st.AvailableCEs()
			}
			return float64(n)
		})
	}
	for i, st := range s.sites {
		st := st
		r.Gauge(fmt.Sprintf("s%02d.queue_len", i), func() float64 { return float64(st.QueueLen()) })
		r.Gauge(fmt.Sprintf("s%02d.cpu_util", i), func() float64 {
			return float64(st.Busy()) / float64(st.CEs())
		})
		r.Gauge(fmt.Sprintf("s%02d.storage_gb", i), func() float64 { return st.Store().Used() / 1e9 })
		r.Gauge(fmt.Sprintf("s%02d.replicas", i), func() float64 { return float64(st.Store().Len()) })
	}
}

// hostedES reinterprets "local" as the scheduler's host site, used for the
// central-ES mapping: a job "runs locally" at the central scheduler's own
// site rather than the user's.
type hostedES struct {
	inner scheduler.External
	host  topology.SiteID
}

func (h hostedES) Name() string { return h.inner.Name() }
func (h hostedES) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	saved := j.Origin
	j.Origin = h.host
	target := h.inner.Place(g, j)
	j.Origin = saved
	return target
}

// Run executes the simulation to completion (or MaxTime) and returns the
// results. It may be called once.
func (s *Simulation) Run() (Results, error) {
	if s.ran {
		return Results{}, fmt.Errorf("core: Simulation is single-use; construct a new one")
	}
	s.ran = true

	if s.fcfg.Enabled() {
		s.injector = faults.Attach(s.eng, s.fcfg, s.faultRoot, faultOps{s},
			func() bool { return !s.finished })
		if s.lmOn {
			s.injector.SetObserver(func(class string) {
				s.lm.faultsByClass.With(class).Inc()
			})
		}
	}

	if s.cfg.ArrivalRate > 0 {
		// Open model: every user's submissions form a Poisson process,
		// decoupled from completions.
		for u := range s.nextJob {
			s.scheduleArrival(job.UserID(u))
		}
	} else {
		// Closed model (the paper): first submission at t = 0, next one
		// on completion of the previous.
		for u := range s.nextJob {
			s.eng.Schedule(0, s.submitFns[u])
		}
	}
	if s.cfg.SampleInterval > 0 {
		s.eng.Every(s.cfg.SampleInterval, func() bool {
			if s.finished {
				return false
			}
			s.sample()
			return true
		})
	}
	if s.probes != nil {
		s.probes.Attach(s.eng, s.cfg.ObsInterval, func() bool { return !s.finished })
	}
	if s.fb != nil {
		// Prime the tracker at t = 0 (queues empty, links idle) so the
		// first placements already see Ready() telemetry, then sample on
		// the feedback interval.
		s.fb.Observe(s.telemetry())
		s.eng.Every(s.fbParams.Interval, func() bool {
			if s.finished {
				return false
			}
			s.fb.Observe(s.telemetry())
			return true
		})
	}
	if s.lmOn || s.wd != nil {
		s.attachControlPlane()
	}
	if s.batch != nil {
		s.eng.Schedule(s.cfg.BatchWindow, s.flushBatch)
	}

	// Inject configured network failures (validated at construction).
	for _, d := range s.cfg.Degradations {
		d := d
		var links []topology.LinkID
		for _, l := range s.topo.Links() {
			if !d.BackboneOnly || s.topo.IsBackbone(l.ID) {
				links = append(links, l.ID)
			}
		}
		s.eng.At(d.At, func() {
			for _, l := range links {
				s.net.SetLinkBandwidth(l, d.Multiplier*s.topo.Link(l).Bandwidth)
			}
		})
		s.eng.At(d.At+d.Duration, func() {
			for _, l := range links {
				s.net.SetLinkBandwidth(l, -1)
			}
		})
	}

	// Start the per-site Dataset Scheduler loops, staggered across the
	// first interval so wake-ups don't all collide at the same instant.
	for i := range s.sites {
		offset := s.cfg.DSInterval * float64(i+1) / float64(len(s.sites))
		s.eng.Schedule(offset, s.dsWakeFns[i])
	}

	if s.cfg.MaxTime > 0 {
		s.eng.RunUntil(s.cfg.MaxTime)
	} else {
		s.eng.Run()
	}

	if !s.finished {
		// Aborted by MaxTime: settle busy integrals now for best-effort
		// reporting.
		for _, st := range s.sites {
			s.busyIntegral += st.BusyIntegral(s.eng.Now())
		}
	}
	esName := s.cfg.ES
	if s.batch != nil {
		esName = s.cfg.BatchES
	}
	r := Results{
		Results:        s.collector.Summarize(s.busyIntegral, s.totalCEs),
		ES:             esName,
		LS:             s.cfg.LS,
		DS:             s.cfg.DS,
		Seed:           s.cfg.Seed,
		BandwidthMBps:  s.cfg.BandwidthMBps,
		TotalCEs:       s.totalCEs,
		Completed:      s.finished,
		FetchesStarted: 0,
		Replications:   s.replications,
		DSDeletions:    s.dsDeletions,
		SimEvents:      s.eng.Fired(),
		SimEndTime:     s.eng.Now(),

		JobsRetried:        s.jobsRetried,
		JobsFailed:         s.jobsFailed,
		TransfersRestarted: s.transfersRestarted,
		ReplicasRestored:   s.replicasRestored,
	}
	if s.injector != nil {
		r.Faults = s.injector.Stats()
	}
	for _, st := range s.sites {
		h, m := st.Store().HitRate()
		r.CacheHits += h
		r.CacheMisses += m
		r.Evictions += st.Store().Evictions()
		r.FetchesStarted += st.FetchesStarted()
	}
	if g, err := stats.Gini(s.collector.SiteJobCounts(len(s.sites))); err == nil {
		r.SiteJobGini = g
	}
	r.Samples = s.samples
	if s.probes != nil {
		r.Series = s.probes.Series()
	}
	util := s.net.LinkUtilization()
	var nBack, nAcc int
	for i, u := range util {
		r.MeanLinkUtil += u
		if u > r.MaxLinkUtil {
			r.MaxLinkUtil = u
		}
		if s.topo.IsBackbone(topology.LinkID(i)) {
			r.BackboneLinkUtil += u
			nBack++
		} else {
			r.AccessLinkUtil += u
			nAcc++
		}
	}
	if len(util) > 0 {
		r.MeanLinkUtil /= float64(len(util))
	}
	if nBack > 0 {
		r.BackboneLinkUtil /= float64(nBack)
	}
	if nAcc > 0 {
		r.AccessLinkUtil /= float64(nAcc)
	}
	s.finishControlPlane(&r)
	if s.wdErr != nil {
		return r, s.wdErr
	}
	if !s.finished && s.cfg.MaxTime <= 0 {
		return r, fmt.Errorf("core: engine drained with %d/%d jobs accounted for (deadlock?)",
			s.jobsDone+s.jobsFailed, s.totalJobs)
	}
	if s.probes != nil {
		if err := s.probes.SinkErr(); err != nil {
			// The simulation itself is fine; the requested stream is not.
			return r, err
		}
	}
	return r, nil
}

// submitNext submits user u's next job, if any.
func (s *Simulation) submitNext(u job.UserID) {
	idx := s.nextJob[u]
	specs := s.wl.Jobs[u]
	if idx >= len(specs) {
		return
	}
	s.nextJob[u]++
	spec := specs[idx]
	j := s.jobs.Alloc(spec.ID, u, s.wl.UserHome[u], spec.Inputs, spec.Compute)
	j.Advance(job.Submitted, s.eng.Now())
	s.jobsSubmitted++
	s.lm.jobsSubmitted.Inc()
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.JobSubmitted, Job: int(j.ID), User: int(u)})
	if s.batch != nil {
		s.batchBuf = append(s.batchBuf, j)
		return
	}
	placeView := s.view
	if s.cfg.RegionalInfo {
		placeView = view{s: s, viewer: s.wl.UserHome[u]}
	}
	target := s.esFor[u].Place(placeView, j)
	if target < 0 || int(target) >= len(s.sites) {
		panic(fmt.Sprintf("core: ES %s placed job %d at invalid site %d", s.cfg.ES, j.ID, target))
	}
	if s.sites[target].Down() {
		// The ES placed onto a dead site (its information is liveness-
		// blind, like the GIS): a placement failure that burns a retry.
		s.failJob(j, target)
		return
	}
	s.dispatches++
	s.lm.dispatches.Inc()
	s.fb.NoteDispatch(target)
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.JobDispatched, Job: int(j.ID), Site: int(target)})
	s.sites[target].Enqueue(j)
}

// jobDone fires when any site completes a job: record metrics, let the
// user submit their next job, and detect end-of-workload.
func (s *Simulation) jobDone(j *job.Job) {
	s.collector.JobDone(j)
	// Lifecycle events are flushed at completion with their true virtual
	// timestamps; trace.Log sorts on output.
	if j.DataReady >= 0 {
		s.rec.Record(trace.Event{T: j.DataReady, Kind: trace.JobDataReady, Job: int(j.ID)})
	}
	s.rec.Record(trace.Event{T: j.StartTime, Kind: trace.JobStarted, Job: int(j.ID), Site: int(j.Site)})
	s.rec.Record(trace.Event{T: j.EndTime, Kind: trace.JobCompleted, Job: int(j.ID), Site: int(j.Site), User: int(j.User)})
	s.shipOutput(j)
	s.jobsDone++
	s.lm.jobsDone.Inc()
	if s.lm.respBySite != nil {
		s.lm.respBySite[j.Site].Observe(float64(j.ResponseTime()))
	}
	// Everything that needed the job has read it (the collector and trace
	// copy what they keep): recycle the slot before driving the next
	// submission, which may reuse it immediately.
	user := j.User
	s.jobs.Free(j)
	if s.workloadSettled() {
		return
	}
	s.driveUser(user)
}

// workloadSettled marks the run finished once every job is accounted for
// — completed or (on faulted runs) abandoned — and settles the busy-time
// integrals at that instant.
func (s *Simulation) workloadSettled() bool {
	if s.jobsDone+s.jobsFailed < s.totalJobs {
		return false
	}
	s.finished = true
	for _, st := range s.sites {
		s.busyIntegral += st.BusyIntegral(s.eng.Now())
	}
	return true
}

// driveUser advances the closed-loop workload for one user after their
// current job reached a terminal state (done or abandoned).
func (s *Simulation) driveUser(u job.UserID) {
	if s.cfg.ArrivalRate > 0 {
		return // open model: submissions are driven by the arrival process
	}
	if s.cfg.ThinkTimeMean > 0 {
		s.eng.Schedule(s.arrivalSrc.Exp(s.cfg.ThinkTimeMean), s.submitFns[u])
		return
	}
	s.submitNext(u)
}

// shipOutput moves a completed job's output back to the submitting site
// when the output-cost extension is enabled. The shipment is asynchronous:
// it contends for bandwidth and is accounted as traffic, but does not
// extend the job's response time (the user has their answer; the bytes
// follow).
func (s *Simulation) shipOutput(j *job.Job) {
	if s.cfg.OutputFraction <= 0 || j.Site == j.Origin {
		return
	}
	bytes := 0.0
	for _, f := range j.Inputs {
		if size, ok := s.cat.Size(f); ok {
			bytes += size
		}
	}
	bytes *= s.cfg.OutputFraction
	if bytes <= 0 {
		return
	}
	jobID, src, dst := int(j.ID), int(j.Site), int(j.Origin)
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.OutputStart, Job: jobID, Src: src, Dst: dst})
	fl := s.net.Transfer(j.Site, j.Origin, bytes, func(fl *netsim.Flow) {
		s.untrackFlow(fl)
		s.collector.Transfer(metrics.OutputTransfer, bytes)
		s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.OutputEnd, Job: jobID, Src: src, Dst: dst, Bytes: bytes})
	})
	s.trackFlow(fl, outputFlow, -1, j.Site, j.Origin)
}

// scheduleArrival drives the open-model Poisson submission process for one
// user: submit now, then book the next arrival.
func (s *Simulation) scheduleArrival(u job.UserID) {
	if s.nextJob[u] >= len(s.wl.Jobs[u]) {
		return
	}
	s.eng.Schedule(s.arrivalSrc.Exp(1/s.cfg.ArrivalRate), s.arriveFns[u])
}

// flushBatch assigns all buffered submissions with the batch heuristic and
// dispatches them, then books the next window.
func (s *Simulation) flushBatch() {
	if s.finished {
		return
	}
	if len(s.batchBuf) > 0 {
		jobs := s.batchBuf
		s.batchBuf = nil
		targets := s.batch.Assign(s.view, jobs)
		if len(targets) != len(jobs) {
			panic(fmt.Sprintf("core: batch scheduler %s returned %d targets for %d jobs",
				s.batch.Name(), len(targets), len(jobs)))
		}
		for i, j := range jobs {
			t := targets[i]
			if t < 0 || int(t) >= len(s.sites) {
				panic(fmt.Sprintf("core: batch scheduler placed job %d at invalid site %d", j.ID, t))
			}
			if s.sites[t].Down() {
				s.failJob(j, t)
				continue
			}
			s.dispatches++
			s.lm.dispatches.Inc()
			s.fb.NoteDispatch(t)
			s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.JobDispatched, Job: int(j.ID), Site: int(t)})
			s.sites[t].Enqueue(j)
		}
	}
	s.eng.Schedule(s.cfg.BatchWindow, s.flushBatch)
}

// sample records one grid snapshot (driven by a recurring engine event
// while the workload runs).
func (s *Simulation) sample() {
	smp := Sample{
		T:           s.eng.Now(),
		SiteBusy:    make([]float64, len(s.sites)),
		ActiveFlows: s.net.ActiveFlows(),
	}
	for i, st := range s.sites {
		smp.SiteBusy[i] = float64(st.Busy()) / float64(st.CEs())
		smp.QueuedJobs += st.QueueLen()
	}
	s.samples = append(s.samples, smp)
}

// dsWake runs one Dataset Scheduler cycle at site i and reschedules itself
// while the workload is still running.
func (s *Simulation) dsWake(i int) {
	if s.finished {
		return
	}
	st := s.sites[i]
	if st.Down() {
		// The DS process is down with its site; it resumes (with an empty
		// popularity window) at the first wake-up after recovery.
		s.eng.Schedule(s.cfg.DSInterval, s.dsWakeFns[i])
		return
	}
	all := st.DrainPopularity()
	popular := all[:0]
	for _, p := range all {
		if p.Count >= s.cfg.DSThreshold {
			popular = append(popular, p)
		}
	}
	if len(popular) > 0 {
		dsView := s.view
		if s.cfg.RegionalInfo {
			dsView = view{s: s, viewer: topology.SiteID(i)}
		}
		for _, rep := range s.dsch.Decide(dsView, topology.SiteID(i), popular) {
			s.pushReplica(topology.SiteID(i), rep)
		}
	}
	if s.cfg.DSDeleteAfter > 0 {
		s.dsDelete(i, all)
	}
	if len(s.lostAt) > 0 && len(s.lostAt[i]) > 0 {
		s.restoreReplicas(i)
	}
	s.eng.Schedule(s.cfg.DSInterval, s.dsWakeFns[i])
}

// dsDelete ages cached replicas at site i and deletes those untouched for
// DSDeleteAfter consecutive DS windows (the DS's "delete local files"
// role).
func (s *Simulation) dsDelete(i int, accessed []scheduler.PopularFile) {
	if s.idleWindows == nil {
		s.idleWindows = make([]map[storage.FileID]int, len(s.sites))
	}
	if s.idleWindows[i] == nil {
		s.idleWindows[i] = make(map[storage.FileID]int)
	}
	windows := s.idleWindows[i]
	touched := make(map[storage.FileID]bool, len(accessed))
	for _, p := range accessed {
		touched[p.File] = true
		delete(windows, p.File)
	}
	for _, f := range s.sites[i].CachedIdleFiles() {
		if touched[f] {
			continue
		}
		windows[f]++
		if windows[f] >= s.cfg.DSDeleteAfter {
			if s.sites[i].DeleteReplica(f) {
				s.dsDeletions++
			}
			delete(windows, f)
		}
	}
}

// pushReplica executes one DS decision: an asynchronous replica push from
// `from` to rep.Target. The source copy is pinned for the duration of the
// transfer.
func (s *Simulation) pushReplica(from topology.SiteID, rep scheduler.Replication) {
	if rep.Target == from || int(rep.Target) < 0 || int(rep.Target) >= len(s.sites) {
		return
	}
	if !s.sites[from].Store().Peek(rep.File) {
		return // no longer resident here
	}
	if s.cat.HasReplica(rep.File, rep.Target) {
		return
	}
	key := pushKey{rep.File, rep.Target}
	if s.pushesInFlight[key] {
		return
	}
	size, ok := s.cat.Size(rep.File)
	if !ok {
		return
	}
	if err := s.sites[from].Store().Pin(rep.File); err != nil {
		return
	}
	s.pushesInFlight[key] = true
	s.replications++
	s.lm.replications.Inc()
	s.rec.Record(trace.Event{
		T: s.eng.Now(), Kind: trace.ReplPush,
		File: int(rep.File), Src: int(from), Dst: int(rep.Target),
	})
	fl := s.net.Transfer(from, rep.Target, size, func(fl *netsim.Flow) {
		s.untrackFlow(fl)
		delete(s.pushesInFlight, key)
		if err := s.sites[from].Store().Unpin(rep.File); err == nil {
			s.sites[from].Store().Touch(rep.File)
		}
		s.collector.Transfer(metrics.ReplicationTransfer, size)
		s.rec.Record(trace.Event{
			T: s.eng.Now(), Kind: trace.ReplArrive,
			File: int(rep.File), Src: int(from), Dst: int(rep.Target), Bytes: size,
		})
		s.sites[rep.Target].ReceiveReplica(rep.File, size)
	})
	s.trackFlow(fl, pushFlow, rep.File, from, rep.Target)
}

// Engine exposes the underlying engine (e.g. for embedding the simulation
// in a larger experiment loop). Read-only use only.
func (s *Simulation) Engine() *desim.Engine { return s.eng }

// Workload returns the workload being executed.
func (s *Simulation) Workload() *workload.Workload { return s.wl }

// RunConfig builds and runs a simulation in one call.
func RunConfig(cfg Config) (Results, error) {
	sim, err := New(cfg)
	if err != nil {
		return Results{}, err
	}
	return sim.Run()
}
