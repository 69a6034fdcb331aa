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
// A change point — a flow starting, finishing or being cancelled, or a
// link's bandwidth changing — costs work only for the flows and links it
// touches. Each flow holds its remaining bytes as of its own anchor time,
// and each link its rate sum and byte total as of its own; a value is
// brought forward only when the rate behind it changes, and the read-side
// projections (LinkBytes, LinkUtilization, LinkBacklogBytes) extrapolate
// to now without writing anything. Under EqualShare a per-link flow index
// yields just the flows on the changed links, and a flow's completion
// event moves only when its rate actually changed (DESIGN.md §13).
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
	remaining  float64 // bytes not yet delivered as of at
	at         desim.Time
	rate       float64 // bytes/sec since at
	path       []topology.LinkID
	done       func(*Flow)
	ev         desim.Event // pending completion event; zero when stalled or inactive
	completeFn func()      // completion closure, built once per pooled struct
	localFn    func()      // zero-hop/zero-size delivery closure
	activateFn func()      // startup-latency expiry closure
	ord        int         // index into Network.active while active; -1 otherwise
	mark       uint64      // reflow epoch that last visited the flow
	started    desim.Time
	canceled   bool
	pooled     bool // on the free list (double-release guard)
}

// Remaining returns the bytes not yet delivered as of the flow's last rate
// change.
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

	links  []link  // per-link state, indexed by LinkID
	active []*Flow // active flows; a flow's ord is its index here
	nextID int
	pool   []*Flow // recycled Flow structs with prebuilt closures

	// Reflow scratch state, reused across calls so the per-change-point
	// hot path allocates nothing.
	epoch    uint64             // current reflow epoch (bumping it clears all flow marks)
	oneLink  [1]topology.LinkID // changed-set buffer for single-link updates
	routeBuf []topology.LinkID  // CongestionOn/PredictTime route scratch
	lsBuf    []linkState        // maxMin per-link progressive-filling state
	rateBuf  []float64          // maxMin new rates, indexed like active; -1 = unfrozen

	bytesMoved float64 // bytes delivered by completed flows
	transfers  int     // completed transfers
}

// link is one link's state: its bandwidth override, the flows crossing it,
// and its accounting. The byte total is held as of bytesAt and moves
// forward only when rateSum changes; the busy time is closed off only when
// the link empties.
type link struct {
	bw        float64 // dynamic override (failure, degradation); -1 = nominal
	flows     []*Flow // active flows crossing the link, in admission order
	rateSum   float64 // Σ rate of flows
	bytes     float64 // bytes carried up to bytesAt
	bytesAt   desim.Time
	busy      float64    // seconds occupied, up to the last time the link emptied
	busySince desim.Time // when the link last became occupied
}

// addRate brings the link's byte total forward to now at the old rate sum,
// then shifts the sum by delta.
func (lk *link) addRate(now desim.Time, delta float64) {
	lk.bytes += lk.rateSum * (now - lk.bytesAt)
	lk.bytesAt = now
	lk.rateSum += delta
}

// drop removes f from the link's flow list, keeping admission order.
func (lk *link) drop(f *Flow) {
	for i, g := range lk.flows {
		if g == f {
			last := len(lk.flows) - 1
			copy(lk.flows[i:], lk.flows[i+1:])
			lk.flows[last] = nil
			lk.flows = lk.flows[:last]
			return
		}
	}
	panic("netsim: flow missing from its link's index")
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
		links:  make([]link, topo.NumLinks()),
	}
	for i := range n.links {
		n.links[i].bw = -1
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
func (n *Network) OverrideActive(l topology.LinkID) bool { return n.links[l].bw >= 0 }

// linkBandwidth returns the effective bandwidth of a link, honoring any
// dynamic override.
func (n *Network) linkBandwidth(l topology.LinkID) float64 {
	if o := n.links[l].bw; o >= 0 {
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
	if bytesPerSec < 0 {
		n.links[l].bw = -1
	} else {
		n.links[l].bw = bytesPerSec
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
	f := &Flow{ord: -1}
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
	now := n.eng.Now()
	f.ev = desim.Event{} // any startup-latency event has fired by now
	f.at = now
	f.ord = len(n.active)
	n.active = append(n.active, f)
	for _, l := range f.path {
		lk := &n.links[l]
		if len(lk.flows) == 0 {
			lk.busySince = now
		}
		lk.flows = append(lk.flows, f)
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
	if f.ord < 0 {
		if pending {
			// Cancelled before activation (startup latency) or delivery
			// (local transfer): the scheduled event will never fire, so
			// recycle here.
			n.release(f)
		}
		return
	}
	n.remove(f)
	n.reflow(f.path)
	n.release(f)
}

// ActiveFlows returns the number of in-flight (non-local) transfers.
func (n *Network) ActiveFlows() int { return len(n.active) }

// BytesMoved returns total bytes delivered by completed transfers.
func (n *Network) BytesMoved() float64 { return n.bytesMoved }

// CompletedTransfers returns the number of finished transfers (including
// zero-hop local ones).
func (n *Network) CompletedTransfers() int { return n.transfers }

// LinkUtilization returns, for every link, the fraction of [0, now] during
// which at least one flow crossed it. Like every projection here it only
// reads state, so calling it at any time leaves Results unchanged.
func (n *Network) LinkUtilization() []float64 {
	out := make([]float64, len(n.links))
	now := n.eng.Now()
	if now <= 0 {
		return out
	}
	for i := range n.links {
		lk := &n.links[i]
		busy := lk.busy
		if len(lk.flows) > 0 {
			busy += now - lk.busySince
		}
		out[i] = busy / now
	}
	return out
}

// LinkBytes returns the bytes carried per link up to now.
func (n *Network) LinkBytes() []float64 {
	out := make([]float64, len(n.links))
	now := n.eng.Now()
	for i := range n.links {
		lk := &n.links[i]
		out[i] = lk.bytes + lk.rateSum*(now-lk.bytesAt)
	}
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
	for _, f := range n.active {
		for _, l := range f.path {
			out[l] += f.rate
		}
	}
	return out
}

// LinkBacklogBytes writes, per link, the bytes still to be delivered by
// the flows crossing it (each flow's remaining bytes counted on every
// link of its route), projected to the current virtual time, into dst and
// returns it (reusing dst's storage as LinkLoads does).
func (n *Network) LinkBacklogBytes(dst []float64) []float64 {
	now := n.eng.Now()
	out := n.linkScratch(dst)
	for _, f := range n.active {
		rem := f.remaining - f.rate*(now-f.at)
		if rem < 0 {
			rem = 0
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
		if c := len(n.links[l].flows); c > maxFlows {
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
		share := n.linkBandwidth(l) / float64(len(n.links[l].flows)+1)
		if share < rate {
			rate = share
		}
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	return size/rate + n.latencyPerHop*float64(len(path))
}

// reflow re-shares bandwidth after a change to the links in changed — a
// started, finished, or cancelled flow's path, or a link whose bandwidth
// was overridden — and retimes every flow whose rate moved.
func (n *Network) reflow(changed []topology.LinkID) {
	switch n.policy {
	case EqualShare:
		// An equal-share rate depends only on the bandwidths and
		// occupancies along the flow's path, so only flows crossing a
		// changed link can move. The epoch mark visits each of them once:
		// changed links in order, each link's flows in admission order.
		n.epoch++
		for _, l := range changed {
			for _, f := range n.links[l].flows {
				if f.mark == n.epoch {
					continue
				}
				f.mark = n.epoch
				n.setRate(f, n.equalShare(f))
			}
		}
	case MaxMinFair:
		n.maxMin()
	default:
		panic("netsim: unknown sharing policy")
	}
}

// equalShare is the paper's rate for f: the minimum over its path of the
// link bandwidth divided by the flows crossing the link.
func (n *Network) equalShare(f *Flow) float64 {
	rate := math.Inf(1)
	for _, l := range f.path {
		if share := n.linkBandwidth(l) / float64(len(n.links[l].flows)); share < rate {
			rate = share
		}
	}
	return rate
}

// setRate moves f to rate at the current time. It brings f's remaining
// bytes and its links' byte totals forward under the old rate, re-anchors
// them at now, and then schedules, moves or cancels f's completion event.
// An unchanged rate changes nothing: the flow keeps its anchor and its
// event exactly as they were.
func (n *Network) setRate(f *Flow, rate float64) {
	if rate == f.rate {
		return
	}
	now := n.eng.Now()
	f.remaining -= f.rate * (now - f.at)
	if f.remaining < 1e-9 {
		f.remaining = 0
	}
	f.at = now
	for _, l := range f.path {
		n.links[l].addRate(now, rate-f.rate)
	}
	f.rate = rate
	if rate <= 0 {
		// Stalled (a link on the path is down); no completion event.
		n.eng.Cancel(f.ev)
		f.ev = desim.Event{}
		return
	}
	delay := f.remaining / rate
	if f.ev.IsZero() {
		f.ev = n.eng.Schedule(delay, f.completeFn)
	} else {
		n.eng.Reschedule(f.ev, delay)
	}
}

// maxMin runs progressive filling from scratch: repeatedly saturate the
// link with the smallest fair share among unfrozen flows, freeze the flows
// crossing it at that share, and redistribute. Every flow whose rate moved
// is then retimed. Within a round every frozen flow books the same share,
// so the order flows are frozen in cannot change any rate.
func (n *Network) maxMin() {
	numLinks := len(n.links)
	if cap(n.lsBuf) < numLinks {
		n.lsBuf = make([]linkState, numLinks)
	}
	ls := n.lsBuf[:numLinks]
	for i := range ls {
		ls[i] = linkState{cap: n.linkBandwidth(topology.LinkID(i)), count: len(n.links[i].flows)}
	}
	if cap(n.rateBuf) < len(n.active) {
		n.rateBuf = make([]float64, len(n.active))
	}
	rates := n.rateBuf[:len(n.active)]
	for i := range rates {
		rates[i] = -1
	}
	for unfrozen := len(n.active); unfrozen > 0; {
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
		for _, f := range n.links[bottleneck].flows {
			if rates[f.ord] >= 0 {
				continue
			}
			rates[f.ord] = best
			unfrozen--
			for _, l := range f.path {
				ls[l].consume(best)
			}
		}
	}
	for i, f := range n.active {
		n.setRate(f, max(rates[i], 0))
	}
}

// complete fires when a flow's completion event triggers.
func (n *Network) complete(f *Flow) {
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

// remove takes an active flow out of the active set (the last flow fills
// its slot) and out of its links' indexes, bringing each link's byte total
// forward and closing its busy interval when the link empties.
func (n *Network) remove(f *Flow) {
	i := f.ord
	if i < 0 || i >= len(n.active) || n.active[i] != f {
		panic("netsim: flow ordinal out of sync")
	}
	last := len(n.active) - 1
	n.active[i] = n.active[last]
	n.active[i].ord = i
	n.active[last] = nil
	n.active = n.active[:last]
	f.ord = -1
	now := n.eng.Now()
	for _, l := range f.path {
		lk := &n.links[l]
		lk.addRate(now, -f.rate)
		lk.drop(f)
		if len(lk.flows) == 0 {
			lk.rateSum = 0 // drop float drift along with the last flow
			lk.busy += now - lk.busySince
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
