// Package kernelbench holds the simulation-kernel benchmark bodies shared
// between `go test -bench` wrappers (internal/desim, internal/netsim, the
// repo-root suite) and cmd/kernelbench, which runs the same bodies through
// testing.Benchmark and emits BENCH_kernel.json so the kernel's perf
// trajectory is tracked across PRs.
//
// The two microbenchmarks target the hot paths ROADMAP calls out: the
// event queue under schedule/cancel churn (the flow-cancellation matrix
// cancels constantly) and netsim's reflow on every flow admission and
// completion. Sim is the end-to-end anchor, reporting events/sec.
package kernelbench

import (
	"runtime"
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/desim"
	"chicsim/internal/netsim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// EngineChurn measures the event queue under a schedule/cancel-heavy load:
// every iteration cancels one pending event and schedules a replacement,
// with a Step every fourth iteration so the clock advances and the queue
// drains. A pool of self-rescheduling tickers keeps Step fueled.
func EngineChurn(b *testing.B) {
	e := desim.New()
	const lanes = 512
	evs := make([]desim.Event, lanes)
	fn := func() {}
	var tick func()
	tick = func() { e.Schedule(1, tick) }
	for i := 0; i < 64; i++ {
		e.Schedule(1, tick)
	}
	for i := range evs {
		evs[i] = e.Schedule(desim.Time(1+i%61), fn)
	}
	x := uint64(0x9E3779B97F4A7C15) // xorshift: deterministic lane choice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := int(x % lanes)
		e.Cancel(evs[idx])
		evs[idx] = e.Schedule(desim.Time(1+x%61), fn)
		if i&3 == 0 {
			e.Step()
		}
	}
}

// EngineStep measures steady-state stepping: a fixed population of
// self-rescheduling events, one Step per iteration. With the pooled
// event queue this path must run at 0 allocs/op.
func EngineStep(b *testing.B) {
	e := desim.New()
	const lanes = 256
	for i := 0; i < lanes; i++ {
		d := desim.Time(1 + i%17)
		var fn func()
		fn = func() { e.Schedule(d, fn) }
		e.Schedule(d, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// Reflow returns a benchmark body measuring one flow admission + one flow
// cancellation against a pool of `flows` concurrent background transfers
// on the paper's 30-site hierarchical topology — exactly the two reflow
// passes every transfer start/abort costs the simulation. On 30 sites the
// background flows cross almost every link, so each change point touches
// most of them.
func Reflow(policy netsim.SharingPolicy, flows int) func(*testing.B) {
	return func(b *testing.B) {
		topo, err := topology.NewHierarchical(
			topology.Config{Sites: 30, RegionFanout: 6, Bandwidth: 10e6}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		reflow(b, topo, policy, flows)
	}
}

// ReflowGrid is Reflow under EqualShare with 1000 background flows on
// ScaleConfig's 1000-site tree, where a flow shares its site links with
// few others: the shape on which a change point's cost should track the
// flows it touches, not the flows in flight.
func ReflowGrid(b *testing.B) {
	cfg := ScaleConfig(0)
	topo, err := topology.NewHierarchical(topology.Config{
		Sites:        cfg.Sites,
		RegionFanout: cfg.RegionFanout,
		Bandwidth:    cfg.BandwidthMBps * 1e6,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	reflow(b, topo, netsim.EqualShare, 1000)
}

func reflow(b *testing.B, topo *topology.Topology, policy netsim.SharingPolicy, flows int) {
	eng := desim.New()
	n := netsim.New(eng, topo, policy)
	sites := uint64(topo.NumSites())
	x := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < flows; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src := topology.SiteID(x % sites)
		dst := topology.SiteID((x>>32 + 1 + x%sites) % sites)
		if dst == src {
			dst = (dst + 1) % topology.SiteID(sites)
		}
		// Effectively infinite: background flows never complete.
		n.Transfer(src, dst, 1e15, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := n.Transfer(topology.SiteID(uint64(i)%sites), topology.SiteID(uint64(i+7)%sites), 1e15, nil)
		n.Cancel(f)
	}
}

// Sim is the end-to-end anchor: full default-scenario simulations,
// reporting kernel throughput as events/sec.
func Sim(b *testing.B) {
	cfg := core.DefaultConfig()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := core.RunConfig(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.SimEvents
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// ScaleConfig is the fixed large-grid scenario behind SimScale: a
// 1000-site hierarchy, bounded result mode, with only the job count
// varying across tiers. Exported so tests and ad-hoc tooling can run the
// exact benchmark scenario.
func ScaleConfig(jobs int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Sites = 1000
	cfg.RegionFanout = 25
	cfg.Users = 4000
	cfg.Files = 2000
	cfg.TotalJobs = jobs
	cfg.ResultMode = core.ResultModeBounded
	return cfg
}

// SimScale returns a benchmark body running the ScaleConfig scenario at
// the given job count. Beyond events/sec it reports mallocs/job — total
// heap allocations over the run divided by jobs. Because the slab job
// store, pooled flow records, and scheduler scratch buffers make the
// steady-state loop allocation-free, mallocs/job is dominated by one-time
// setup and falls toward zero as the tier grows; a flat or rising curve
// across 10k→1M is a per-job allocation regression.
func SimScale(jobs int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := ScaleConfig(jobs)
		var events, mallocs uint64
		var ms runtime.MemStats
		for i := 0; i < b.N; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			res, err := core.RunConfig(cfg)
			if err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			events += res.SimEvents
			mallocs += ms.Mallocs - before
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(events)/s, "events/sec")
		}
		b.ReportMetric(float64(mallocs)/float64(b.N)/float64(jobs), "mallocs/job")
	}
}
