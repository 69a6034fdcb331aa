// Package netsim simulates wide-area data transfers over a routed topology
// using a fluid-flow model.
//
// The paper's contention model is: "We model network contention by keeping
// track of the number of simultaneous data transfers across a link and
// decreasing the bandwidth available for each transfer accordingly." That
// is the default EqualShare policy here: a link with bandwidth B and n
// concurrent flows gives each flow B/n, and a flow's end-to-end rate is the
// minimum share along its path. A max-min fair policy is provided as an
// ablation (see DESIGN.md §6).
//
// Whenever any flow starts or finishes, all in-flight flows have their
// transferred bytes advanced at the old rates and their completion events
// rescheduled at the new rates. The reflow is incremental: only flows
// sharing a link with the change have their equal-share rate recomputed
// (the others' shares are provably unchanged), and completion events are
// moved in place via desim's Reschedule instead of cancel+schedule churn —
// see DESIGN.md §13 for why this keeps results byte-identical.
package netsim

import (
	"fmt"
	"math"

	"chicsim/internal/desim"
	"chicsim/internal/topology"
)

// SharingPolicy selects how concurrent flows split link bandwidth.
type SharingPolicy int

const (
	// EqualShare is the paper's model: each flow on a link gets
	// bandwidth/#flows; a flow's rate is its minimum share on the path.
	EqualShare SharingPolicy = iota
	// MaxMinFair runs progressive filling so that bandwidth unused by
	// bottlenecked flows is redistributed to the others.
	MaxMinFair
)

func (p SharingPolicy) String() string {
	switch p {
	case EqualShare:
		return "EqualShare"
	case MaxMinFair:
		return "MaxMinFair"
	default:
		return fmt.Sprintf("SharingPolicy(%d)", int(p))
	}
}

// Flow is an in-progress transfer. Exposed fields are read-only snapshots
// maintained by the Network.
//
// Flow structs are pooled: when a transfer finishes or is cancelled the
// struct returns to the Network's free list and a later Transfer reuses
// it (with a fresh ID). A *Flow handle is therefore only valid between
// Transfer and the flow's completion or cancellation — exactly the window
// the simulator uses them in. The three scheduling closures are built
// once per struct, when it is first allocated, so the steady-state
// transfer loop allocates nothing per flow.
type Flow struct {
	ID         int
	Src, Dst   topology.SiteID
	Size       float64 // total bytes
	remaining  float64
	rate       float64 // bytes/sec at last update
	path       []topology.LinkID
	done       func(*Flow)
	ev         desim.Event // pending completion event; zero when stalled or inactive
	completeFn func()      // completion closure, built once per pooled struct
	localFn    func()      // zero-hop/zero-size delivery closure
	activateFn func()      // startup-latency expiry closure
	ord        int         // index into Network.ordered while active
	started    desim.Time
	canceled   bool
	pooled     bool // on the free list (double-release guard)
}

// Remaining returns the bytes not yet delivered as of the last rate change.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the current transfer rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Started returns the virtual time the transfer began.
func (f *Flow) Started() desim.Time { return f.started }

// Network manages all concurrent flows over one topology.
type Network struct {
	eng    *desim.Engine
	topo   *topology.Topology
	policy SharingPolicy

	// latencyPerHop is a fixed startup delay per link crossed before a
	// flow begins moving bytes (propagation + protocol setup). 0 by
	// default — the paper models transfer cost purely as size/bandwidth.
	latencyPerHop float64

	// bwOverride holds dynamic per-link bandwidth overrides (failures,
	// degradations); -1 means "use the topology's nominal bandwidth".
	bwOverride []float64

	flows   map[int]*Flow
	ordered []*Flow // active flows in admission order: deterministic iteration
	onLink  []int   // active flow count per link
	nextID  int
	pool    []*Flow // recycled Flow structs with prebuilt closures

	// Reflow scratch state, reused across calls so the per-change-point
	// hot path allocates nothing.
	linkEpoch []uint64           // epoch mark per link: "touched by the current change"
	epoch     uint64             // current reflow epoch (bumping it clears all marks)
	oneLink   [1]topology.LinkID // changed-set buffer for single-link updates
	routeBuf  []topology.LinkID  // CongestionOn/PredictTime route scratch
	lsBuf     []linkState        // maxMin per-link progressive-filling state
	frozenBuf []bool             // maxMin frozen marks, indexed like ordered

	// Accounting.
	bytesMoved   float64   // bytes delivered by completed flows
	transfers    int       // completed transfers
	linkBusy     []float64 // integral of (active?1:0) dt per link
	linkBytes    []float64 // bytes attributed per link (Σ rate·dt)
	lastAccounts desim.Time
}

// linkState is per-link progressive-filling bookkeeping for maxMin.
type linkState struct {
	cap   float64 // capacity not yet claimed by frozen flows
	count int     // unfrozen flows crossing the link
}

// consume books a newly frozen flow's share out of the link: the residual
// capacity drops (clamped at zero against float drift accumulated over
// filling rounds) and so does the unfrozen-flow count.
func (s *linkState) consume(rate float64) {
	s.cap -= rate
	if s.cap < 0 {
		s.cap = 0
	}
	s.count--
}

// New creates a network simulator bound to an engine and topology.
func New(eng *desim.Engine, topo *topology.Topology, policy SharingPolicy) *Network {
	n := &Network{
		eng:    eng,
		topo:   topo,
		policy: policy,
		flows:  make(map[int]*Flow),
		onLink: make([]int, topo.NumLinks()),

		bwOverride: make([]float64, topo.NumLinks()),
		linkEpoch:  make([]uint64, topo.NumLinks()),
		linkBusy:   make([]float64, topo.NumLinks()),
		linkBytes:  make([]float64, topo.NumLinks()),
	}
	for i := range n.bwOverride {
		n.bwOverride[i] = -1
	}
	return n
}

// SetLatencyPerHop sets the fixed startup delay charged per link crossed
// before a transfer begins moving bytes. Applies to transfers started
// after the call.
func (n *Network) SetLatencyPerHop(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		panic(fmt.Sprintf("netsim: invalid latency %v", seconds))
	}
	n.latencyPerHop = seconds
}

// OverrideActive reports whether a dynamic bandwidth override (degradation,
// outage, or scheduled Degradation window) is currently in force on the
// link. The fault injector uses this to avoid stacking faults on a link
// that is already impaired.
func (n *Network) OverrideActive(l topology.LinkID) bool { return n.bwOverride[l] >= 0 }

// linkBandwidth returns the effective bandwidth of a link, honoring any
// dynamic override.
func (n *Network) linkBandwidth(l topology.LinkID) float64 {
	if o := n.bwOverride[l]; o >= 0 {
		return o
	}
	return n.topo.Link(l).Bandwidth
}

// SetLinkBandwidth dynamically changes one link's bandwidth (degradation
// or repair), immediately re-sharing all in-flight transfers. A bandwidth
// of 0 stalls flows crossing the link until it recovers; negative restores
// the nominal value.
func (n *Network) SetLinkBandwidth(l topology.LinkID, bytesPerSec float64) {
	if math.IsNaN(bytesPerSec) {
		panic("netsim: NaN bandwidth")
	}
	n.settle()
	if bytesPerSec < 0 {
		n.bwOverride[l] = -1
	} else {
		n.bwOverride[l] = bytesPerSec
	}
	n.oneLink[0] = l
	n.reflow(n.oneLink[:])
}

// Transfer starts moving size bytes from src to dst and calls done when the
// last byte arrives. A zero-hop transfer (src == dst) or zero-size transfer
// completes via an immediately scheduled event, preserving event ordering.
// It returns the flow handle, which may be passed to Cancel.
func (n *Network) Transfer(src, dst topology.SiteID, size float64, done func(*Flow)) *Flow {
	if size < 0 || math.IsNaN(size) {
		panic(fmt.Sprintf("netsim: Transfer with invalid size %v", size))
	}
	f := n.newFlow()
	f.ID = n.nextID
	f.Src, f.Dst = src, dst
	f.Size = size
	f.remaining = size
	f.rate = 0
	f.path = n.topo.Route(f.path[:0], src, dst)
	f.done = done
	f.started = n.eng.Now()
	n.nextID++
	if len(f.path) == 0 || size == 0 {
		// Local or empty: delivered "instantly" but still via the event
		// queue so callers observe a consistent ordering.
		f.ev = n.eng.Schedule(0, f.localFn)
		return f
	}
	if n.latencyPerHop > 0 {
		// Startup latency: the flow consumes no bandwidth until the path
		// is established.
		f.ev = n.eng.Schedule(n.latencyPerHop*float64(len(f.path)), f.activateFn)
		return f
	}
	n.activate(f)
	return f
}

// newFlow pops a recycled Flow or builds a fresh one with its scheduling
// closures bound. The closures capture the struct, not a transfer, so
// they survive reuse.
func (n *Network) newFlow() *Flow {
	if len(n.pool) > 0 {
		f := n.pool[len(n.pool)-1]
		n.pool = n.pool[:len(n.pool)-1]
		f.pooled = false
		f.canceled = false
		return f
	}
	f := &Flow{}
	f.completeFn = func() { n.complete(f) }
	f.localFn = func() { n.finishLocal(f) }
	f.activateFn = func() { n.activate(f) }
	return f
}

// release returns a finished or cancelled flow to the free list. Any
// handle the caller still holds is dead from here on.
func (n *Network) release(f *Flow) {
	if f.pooled {
		panic("netsim: flow released twice")
	}
	f.pooled = true
	f.done = nil
	f.path = f.path[:0] // keep the capacity for the next transfer
	n.pool = append(n.pool, f)
}

// activate admits a flow to the bandwidth-sharing pool.
func (n *Network) activate(f *Flow) {
	if f.canceled {
		return
	}
	n.settle()
	f.ev = desim.Event{} // any startup-latency event has fired by now
	f.ord = len(n.ordered)
	n.flows[f.ID] = f
	n.ordered = append(n.ordered, f)
	for _, l := range f.path {
		n.onLink[l]++
	}
	n.reflow(f.path)
}

// Cancel aborts an in-flight transfer; its done callback never fires.
// Bytes already moved remain accounted as link traffic. The flow struct
// is recycled: the handle must not be used (or Cancelled again) after
// this returns.
func (n *Network) Cancel(f *Flow) {
	if f == nil || f.canceled {
		return
	}
	f.canceled = true
	pending := !f.ev.IsZero()
	n.eng.Cancel(f.ev)
	f.ev = desim.Event{}
	if _, ok := n.flows[f.ID]; !ok {
		if pending {
			// Cancelled before activation (startup latency) or delivery
			// (local transfer): the scheduled event will never fire, so
			// recycle here.
			n.release(f)
		}
		return
	}
	n.settle()
	n.remove(f)
	n.reflow(f.path)
	n.release(f)
}

// ActiveFlows returns the number of in-flight (non-local) transfers.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// BytesMoved returns total bytes delivered by completed transfers.
func (n *Network) BytesMoved() float64 { return n.bytesMoved }

// CompletedTransfers returns the number of finished transfers (including
// zero-hop local ones).
func (n *Network) CompletedTransfers() int { return n.transfers }

// LinkUtilization returns, for every link, the fraction of [0, now] during
// which at least one flow crossed it. Call settle-free at end of run.
func (n *Network) LinkUtilization() []float64 {
	n.settle()
	out := make([]float64, len(n.linkBusy))
	now := n.eng.Now()
	if now <= 0 {
		return out
	}
	for i, b := range n.linkBusy {
		out[i] = b / now
	}
	return out
}

// LinkBytes returns the bytes carried per link so far.
func (n *Network) LinkBytes() []float64 {
	n.settle()
	out := make([]float64, len(n.linkBytes))
	copy(out, n.linkBytes)
	return out
}

// EffectiveBandwidth returns the link's current capacity in bytes/sec,
// honoring any fault override (the exported face of linkBandwidth, for
// monitoring and invariant checks).
func (n *Network) EffectiveBandwidth(l topology.LinkID) float64 {
	return n.linkBandwidth(l)
}

// EffectiveBandwidths returns every link's current capacity in bytes/sec
// (EffectiveBandwidth in bulk) — one telemetry sample for trend trackers.
func (n *Network) EffectiveBandwidths() []float64 {
	out := make([]float64, n.topo.NumLinks())
	for i := range out {
		out[i] = n.linkBandwidth(topology.LinkID(i))
	}
	return out
}

// LinkLoads writes, per link, the sum of the current rates of the flows
// crossing it into dst and returns it. dst is resized to the link count,
// reallocated only when its capacity is short, so a caller that keeps the
// returned slice samples every tick without allocating. With correct flow
// control no load exceeds EffectiveBandwidth for its link — the
// watchdog's link-capacity invariant.
func (n *Network) LinkLoads(dst []float64) []float64 {
	out := n.linkScratch(dst)
	for _, f := range n.ordered {
		for _, l := range f.path {
			out[l] += f.rate
		}
	}
	return out
}

// LinkBacklogBytes writes, per link, the bytes still to be delivered by
// the flows crossing it (each flow's remaining bytes counted on every
// link of its route), projected to the current virtual time, into dst and
// returns it (reusing dst's storage as LinkLoads does). It is strictly
// read-only — deliberately NOT calling settle(), whose incremental float
// accounting would make results depend on when monitoring sampled it.
func (n *Network) LinkBacklogBytes(dst []float64) []float64 {
	dt := n.eng.Now() - n.lastAccounts
	out := n.linkScratch(dst)
	for _, f := range n.ordered {
		rem := f.remaining
		if dt > 0 {
			rem -= f.rate * dt
			if rem < 0 {
				rem = 0
			}
		}
		for _, l := range f.path {
			out[l] += rem
		}
	}
	return out
}

// linkScratch returns dst resized to one zeroed entry per link, reusing
// its storage when the capacity suffices.
func (n *Network) linkScratch(dst []float64) []float64 {
	nl := n.topo.NumLinks()
	if cap(dst) < nl {
		return make([]float64, nl)
	}
	dst = dst[:nl]
	clear(dst)
	return dst
}

// CongestionOn reports the current number of active flows crossing the
// route between two sites at its most loaded link. The adaptive scheduler
// extension uses this as its congestion signal.
func (n *Network) CongestionOn(src, dst topology.SiteID) int {
	maxFlows := 0
	n.routeBuf = n.topo.Route(n.routeBuf[:0], src, dst)
	for _, l := range n.routeBuf {
		if c := n.onLink[l]; c > maxFlows {
			maxFlows = c
		}
	}
	return maxFlows
}

// PredictTime estimates, under current conditions, the seconds needed to
// move size bytes between the sites (∞-free: returns size/rate with at
// least one competing slot assumed for the new flow itself).
func (n *Network) PredictTime(src, dst topology.SiteID, size float64) float64 {
	n.routeBuf = n.topo.Route(n.routeBuf[:0], src, dst)
	path := n.routeBuf
	if len(path) == 0 {
		return 0
	}
	rate := math.Inf(1)
	for _, l := range path {
		share := n.linkBandwidth(l) / float64(n.onLink[l]+1)
		if share < rate {
			rate = share
		}
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	return size/rate + n.latencyPerHop*float64(len(path))
}

// settle advances every active flow's remaining bytes to "now" at the rates
// fixed at the previous change point, and accrues link busy-time integrals.
func (n *Network) settle() {
	now := n.eng.Now()
	dt := now - n.lastAccounts
	if dt < 0 {
		panic("netsim: time went backwards")
	}
	if dt > 0 {
		for _, f := range n.ordered {
			f.remaining -= f.rate * dt
			if f.remaining < 1e-9 {
				f.remaining = 0
			}
			for _, l := range f.path {
				n.linkBytes[l] += f.rate * dt
			}
		}
		for l, c := range n.onLink {
			if c > 0 {
				n.linkBusy[l] += dt
			}
		}
	}
	n.lastAccounts = now
}

// reflow recomputes flow rates after a change to the links in changed — a
// started, finished, or cancelled flow's path, or a link whose bandwidth
// was overridden — and re-anchors every flow's completion event. Must be
// called with settled accounts.
//
// Byte-identity contract (the golden-hash test enforces it): the
// pre-optimization reflow recomputed every rate and cancel+rescheduled
// every completion event at every change point. The equal-share rate of a
// flow crossing none of the changed links is provably bit-identical (no
// bandwidth or flow count on its path moved), so skipping its
// recomputation is exact. Completion *times* must still be re-derived for
// every flow: remaining/rate recomputed at the new change point differs
// from the previously scheduled time by float rounding, and the old
// kernel's results embed exactly that jitter. Each running flow is
// therefore Rescheduled in admission order, burning engine sequence
// numbers precisely like the cancel+schedule pair it replaces — see
// desim.Engine.Reschedule.
func (n *Network) reflow(changed []topology.LinkID) {
	switch n.policy {
	case EqualShare:
		n.epoch++
		for _, l := range changed {
			n.linkEpoch[l] = n.epoch
		}
		for _, f := range n.ordered {
			touched := false
			for _, l := range f.path {
				if n.linkEpoch[l] == n.epoch {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			rate := math.Inf(1)
			for _, l := range f.path {
				share := n.linkBandwidth(l) / float64(n.onLink[l])
				if share < rate {
					rate = share
				}
			}
			f.rate = rate
		}
	case MaxMinFair:
		n.maxMin()
	default:
		panic("netsim: unknown sharing policy")
	}
	for _, f := range n.ordered {
		if f.rate <= 0 {
			// Stalled (a link on the path is down); no completion event.
			if !f.ev.IsZero() {
				n.eng.Cancel(f.ev)
				f.ev = desim.Event{}
			}
			continue
		}
		delay := f.remaining / f.rate
		if f.ev.IsZero() {
			f.ev = n.eng.Schedule(delay, f.completeFn)
		} else {
			n.eng.Reschedule(f.ev, delay)
		}
	}
}

// maxMin runs progressive filling: repeatedly saturate the link with the
// smallest fair share among unfrozen flows, freeze its flows at that rate,
// and redistribute.
func (n *Network) maxMin() {
	numLinks := n.topo.NumLinks()
	if cap(n.lsBuf) < numLinks {
		n.lsBuf = make([]linkState, numLinks)
	}
	ls := n.lsBuf[:numLinks]
	for i := range ls {
		ls[i] = linkState{cap: n.linkBandwidth(topology.LinkID(i))}
	}
	if cap(n.frozenBuf) < len(n.ordered) {
		n.frozenBuf = make([]bool, len(n.ordered))
	}
	frozen := n.frozenBuf[:len(n.ordered)]
	for i := range frozen {
		frozen[i] = false
	}
	for _, f := range n.ordered {
		f.rate = 0
		for _, l := range f.path {
			ls[l].count++
		}
	}
	remaining := len(n.ordered)
	for remaining > 0 {
		// Find bottleneck link: min cap/count over links with count > 0.
		bottleneck := -1
		best := math.Inf(1)
		for i := range ls {
			if ls[i].count > 0 {
				if share := ls[i].cap / float64(ls[i].count); share < best {
					best = share
					bottleneck = i
				}
			}
		}
		if bottleneck < 0 {
			break
		}
		// Freeze all unfrozen flows crossing the bottleneck at `best`,
		// in admission order for determinism.
		for i, f := range n.ordered {
			if frozen[i] {
				continue
			}
			crosses := false
			for _, l := range f.path {
				if int(l) == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = best
			frozen[i] = true
			remaining--
			for _, l := range f.path {
				ls[l].consume(best)
			}
		}
	}
}

// complete fires when a flow's completion event triggers.
func (n *Network) complete(f *Flow) {
	n.settle()
	f.remaining = 0
	f.ev = desim.Event{}
	n.remove(f)
	n.reflow(f.path)
	n.finish(f)
	n.release(f)
}

// finishLocal delivers a zero-hop or zero-size transfer when its
// scheduled event fires, then recycles the flow.
func (n *Network) finishLocal(f *Flow) {
	f.ev = desim.Event{}
	n.finish(f)
	n.release(f)
}

func (n *Network) remove(f *Flow) {
	if _, ok := n.flows[f.ID]; !ok {
		return
	}
	delete(n.flows, f.ID)
	i := f.ord
	if i >= len(n.ordered) || n.ordered[i] != f {
		panic("netsim: flow ordinal out of sync")
	}
	last := len(n.ordered) - 1
	copy(n.ordered[i:], n.ordered[i+1:])
	n.ordered[last] = nil
	n.ordered = n.ordered[:last]
	for ; i < last; i++ {
		n.ordered[i].ord = i
	}
	for _, l := range f.path {
		n.onLink[l]--
		if n.onLink[l] < 0 {
			panic("netsim: negative link occupancy")
		}
	}
}

func (n *Network) finish(f *Flow) {
	if f.canceled {
		return
	}
	n.bytesMoved += f.Size
	n.transfers++
	if f.done != nil {
		f.done(f)
	}
}
