package netsim

import (
	"fmt"
	"math"
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// TestIncrementalReflowMatchesFull cross-checks the per-link equal-share
// recompute against a from-scratch evaluation after every change point of
// a randomized admit/cancel/degrade/advance schedule. The comparison is
// exact (==, not within-epsilon): a flow the change point does not visit
// crosses no changed link, so its rate must already be bit-identical.
func TestIncrementalReflowMatchesFull(t *testing.T) {
	eng := desim.New()
	topo, err := topology.NewHierarchical(
		topology.Config{Sites: 18, RegionFanout: 4, Bandwidth: 5e6}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	n := New(eng, topo, EqualShare)
	r := rng.New(99)

	check := func(step int) {
		t.Helper()
		for _, f := range n.active {
			if want := n.equalShare(f); f.rate != want {
				t.Fatalf("step %d: flow %d rate %v != full recompute %v",
					step, f.ID, f.rate, want)
			}
		}
	}

	var open []*Flow
	degraded := topology.LinkID(0)
	for i := 0; i < 600; i++ {
		switch r.Intn(5) {
		case 0, 1: // admit
			src := topology.SiteID(r.Intn(18))
			dst := topology.SiteID(r.Intn(18))
			open = append(open, n.Transfer(src, dst, 1e6+float64(r.Intn(1e7)), nil))
		case 2: // cancel a random open flow
			if len(open) > 0 {
				j := r.Intn(len(open))
				n.Cancel(open[j])
				open = append(open[:j], open[j+1:]...)
			}
		case 3: // degrade or restore one link
			if r.Intn(2) == 0 {
				degraded = topology.LinkID(r.Intn(topo.NumLinks()))
				n.SetLinkBandwidth(degraded, float64(r.Intn(3))*1e5)
			} else {
				n.SetLinkBandwidth(degraded, -1)
			}
		case 4: // advance virtual time so completions fire
			eng.RunUntil(eng.Now() + r.Range(0, 2))
		}
		check(i)
	}
	// Restore every link so stalled flows resume, then drain to completion.
	for l := 0; l < topo.NumLinks(); l++ {
		n.SetLinkBandwidth(topology.LinkID(l), -1)
		check(600 + l)
	}
	eng.Run()
	check(-1)
	if n.ActiveFlows() != 0 {
		t.Fatalf("flows still active after drain: %d", n.ActiveFlows())
	}
}

// refFlow is one transfer in the eager reference model.
type refFlow struct {
	key                   int
	path                  []topology.LinkID
	size, remaining, rate float64
}

// refModel is the eager fluid model the lazy kernel must agree with: at
// every change point it settles every flow and every link, recomputes
// every rate from scratch and re-derives every completion time.
type refModel struct {
	policy    SharingPolicy
	bw        []float64 // effective bandwidth per link
	now       float64
	flows     []*refFlow // active, in admission order
	linkBytes []float64
	linkBusy  []float64
	moved     float64
	doneAt    map[int]float64
}

func newRefModel(topo *topology.Topology, policy SharingPolicy) *refModel {
	m := &refModel{
		policy:    policy,
		bw:        make([]float64, topo.NumLinks()),
		linkBytes: make([]float64, topo.NumLinks()),
		linkBusy:  make([]float64, topo.NumLinks()),
		doneAt:    make(map[int]float64),
	}
	for l := range m.bw {
		m.bw[l] = topo.Link(topology.LinkID(l)).Bandwidth
	}
	return m
}

// settle moves every flow and link forward to t at the current rates.
func (m *refModel) settle(t float64) {
	dt := t - m.now
	occupied := make([]bool, len(m.bw))
	for _, f := range m.flows {
		f.remaining = max(f.remaining-f.rate*dt, 0)
		for _, l := range f.path {
			m.linkBytes[l] += f.rate * dt
			occupied[l] = true
		}
	}
	for l, busy := range occupied {
		if busy {
			m.linkBusy[l] += dt
		}
	}
	m.now = t
}

// reshare recomputes every flow's rate from scratch.
func (m *refModel) reshare() {
	count := make([]int, len(m.bw))
	for _, f := range m.flows {
		for _, l := range f.path {
			count[l]++
		}
	}
	if m.policy == EqualShare {
		for _, f := range m.flows {
			f.rate = math.Inf(1)
			for _, l := range f.path {
				f.rate = min(f.rate, m.bw[l]/float64(count[l]))
			}
		}
		return
	}
	// Progressive filling.
	capLeft := append([]float64(nil), m.bw...)
	frozen := make([]bool, len(m.flows))
	for _, f := range m.flows {
		f.rate = 0
	}
	for {
		bottleneck, best := -1, math.Inf(1)
		for l := range capLeft {
			if count[l] > 0 && capLeft[l]/float64(count[l]) < best {
				bottleneck, best = l, capLeft[l]/float64(count[l])
			}
		}
		if bottleneck < 0 {
			return
		}
		for i, f := range m.flows {
			crosses := false
			for _, l := range f.path {
				crosses = crosses || int(l) == bottleneck
			}
			if frozen[i] || !crosses {
				continue
			}
			frozen[i], f.rate = true, best
			for _, l := range f.path {
				capLeft[l] = max(capLeft[l]-best, 0)
				count[l]--
			}
		}
	}
}

// advance runs the model to t, completing flows in time order; t = +Inf
// runs until no flow can finish and leaves the clock at the last
// completion.
func (m *refModel) advance(t float64) {
	for {
		next, at := -1, math.Inf(1)
		for i, f := range m.flows {
			if f.rate > 0 && m.now+f.remaining/f.rate < at {
				next, at = i, m.now+f.remaining/f.rate
			}
		}
		if next < 0 || at > t {
			break
		}
		m.settle(at)
		f := m.flows[next]
		m.doneAt[f.key] = at
		m.moved += f.size
		m.drop(next)
	}
	if !math.IsInf(t, 1) {
		m.settle(t)
	}
}

func (m *refModel) admit(key int, path []topology.LinkID, size float64) {
	m.flows = append(m.flows, &refFlow{key: key, path: path, size: size, remaining: size})
	m.reshare()
}

func (m *refModel) cancel(key int) {
	for i, f := range m.flows {
		if f.key == key {
			m.drop(i)
			return
		}
	}
}

func (m *refModel) drop(i int) {
	m.flows = append(m.flows[:i], m.flows[i+1:]...)
	m.reshare()
}

func (m *refModel) setBandwidth(l topology.LinkID, bw float64) {
	m.bw[l] = bw
	m.reshare()
}

// closeRel reports whether a and b agree within 1e-9 relative (absolute
// near zero).
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b), 1)
}

// flowSnap is a flow's retiming state just before a change point.
type flowSnap struct {
	f     *Flow
	id    int
	rate  float64
	at    desim.Time
	ev    desim.Event
	evAt  desim.Time
	stall bool
}

// TestLazyReflowMatchesEagerModel drives the kernel and the eager
// reference model through the same randomized admit/cancel/degrade/
// outage/advance schedules under both sharing policies. After every step
// each finished flow's completion time, BytesMoved, LinkBytes and
// LinkUtilization must agree within 1e-9 relative. After every single
// change point (an admission, a cancellation, a bandwidth change) a flow
// whose rate did not change must keep its anchor and its completion event
// exactly: same handle, same firing time, no reschedule.
func TestLazyReflowMatchesEagerModel(t *testing.T) {
	for _, policy := range []SharingPolicy{EqualShare, MaxMinFair} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", policy, seed), func(t *testing.T) {
				kept, moved := lazyVersusEager(t, policy, seed)
				if kept == 0 || moved == 0 {
					t.Fatalf("schedule exercised %d kept and %d moved events; want both > 0", kept, moved)
				}
			})
		}
	}
}

func lazyVersusEager(t *testing.T, policy SharingPolicy, seed uint64) (kept, moved int) {
	const sites = 18
	eng := desim.New()
	topo, err := topology.NewHierarchical(
		topology.Config{Sites: sites, RegionFanout: 4, Bandwidth: 5e6}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	n := New(eng, topo, policy)
	ref := newRefModel(topo, policy)
	r := rng.New(seed * 7919)

	doneAt := make(map[int]float64)
	open := map[int]*Flow{} // by key; a key leaves when its flow finishes
	var keys []int          // open keys in admission order, for reproducible picks
	nextKey := 0

	compare := func(step int) {
		t.Helper()
		if len(doneAt) != len(ref.doneAt) {
			t.Fatalf("step %d: %d flows finished, reference finished %d", step, len(doneAt), len(ref.doneAt))
		}
		for k, at := range doneAt {
			if want, ok := ref.doneAt[k]; !ok || !closeRel(at, want) {
				t.Fatalf("step %d: flow %d finished at %v, reference %v (finished %v)", step, k, at, want, ok)
			}
		}
		if !closeRel(n.BytesMoved(), ref.moved) {
			t.Fatalf("step %d: BytesMoved %v, reference %v", step, n.BytesMoved(), ref.moved)
		}
		bytes, util := n.LinkBytes(), n.LinkUtilization()
		for l := range bytes {
			if !closeRel(bytes[l], ref.linkBytes[l]) {
				t.Fatalf("step %d: link %d bytes %v, reference %v", step, l, bytes[l], ref.linkBytes[l])
			}
			if want := ref.linkBusy[l] / ref.now; ref.now > 0 && !closeRel(util[l], want) {
				t.Fatalf("step %d: link %d utilization %v, reference %v", step, l, util[l], want)
			}
		}
	}
	snapshot := func() []flowSnap {
		out := make([]flowSnap, 0, len(n.active))
		for _, f := range n.active {
			out = append(out, flowSnap{f, f.ID, f.rate, f.at, f.ev, f.ev.At(), f.ev.IsZero()})
		}
		return out
	}
	// checkKept asserts the retime-only-on-change rule for one change point.
	checkKept := func(step int, before []flowSnap) {
		t.Helper()
		for _, s := range before {
			f := s.f
			if f.ord < 0 || f.ID != s.id {
				continue // finished or cancelled (and maybe reused)
			}
			if f.rate != s.rate {
				moved++
				continue
			}
			if f.ev != s.ev || f.at != s.at || (!s.stall && f.ev.At() != s.evAt) {
				t.Fatalf("step %d: flow %d kept rate %v but was retimed (anchor %v -> %v, event at %v -> %v)",
					step, f.ID, s.rate, s.at, f.at, s.evAt, f.ev.At())
			}
			kept++
		}
	}
	changeLink := func(l topology.LinkID, bw float64) {
		n.SetLinkBandwidth(l, bw)
		if bw < 0 {
			bw = topo.Link(l).Bandwidth
		}
		ref.setBandwidth(l, bw)
	}

	for step := 0; step < 400; step++ {
		before := snapshot()
		single := true
		switch op := r.Intn(8); {
		case op <= 2: // admit
			src := topology.SiteID(r.Intn(sites))
			dst := topology.SiteID((int(src) + 1 + r.Intn(sites-1)) % sites)
			size := r.Range(1e6, 2e7)
			key := nextKey
			nextKey++
			f := n.Transfer(src, dst, size, func(*Flow) {
				doneAt[key] = eng.Now()
				delete(open, key)
			})
			open[key] = f
			keys = append(keys, key)
			ref.admit(key, append([]topology.LinkID(nil), f.path...), size)
		case op == 3: // cancel a random open flow
			live := keys[:0]
			for _, k := range keys {
				if open[k] != nil {
					live = append(live, k)
				}
			}
			keys = live
			if len(keys) == 0 {
				continue
			}
			j := r.Intn(len(keys))
			k := keys[j]
			n.Cancel(open[k])
			delete(open, k)
			keys = append(keys[:j], keys[j+1:]...)
			ref.cancel(k)
		case op == 4: // degrade one link
			l := topology.LinkID(r.Intn(topo.NumLinks()))
			changeLink(l, r.Range(0.1, 0.9)*topo.Link(l).Bandwidth)
		case op == 5: // outage on one link
			changeLink(topology.LinkID(r.Intn(topo.NumLinks())), 0)
		case op == 6: // restore one link
			changeLink(topology.LinkID(r.Intn(topo.NumLinks())), -1)
		default: // advance virtual time so completions fire
			single = false
			to := eng.Now() + r.Range(0, 3)
			eng.RunUntil(to)
			ref.advance(to)
		}
		if single {
			checkKept(step, before)
		}
		compare(step)
	}
	// Restore every link so stalled flows resume, then drain.
	for l := 0; l < topo.NumLinks(); l++ {
		changeLink(topology.LinkID(l), -1)
	}
	eng.Run()
	ref.advance(math.Inf(1))
	if !closeRel(eng.Now(), ref.now) {
		t.Fatalf("drained at %v, reference at %v", eng.Now(), ref.now)
	}
	compare(-1)
	if n.ActiveFlows() != 0 || len(ref.flows) != 0 {
		t.Fatalf("flows left after drain: kernel %d, reference %d", n.ActiveFlows(), len(ref.flows))
	}
	return kept, moved
}

// TestEqualFlowsFinishTogether is the closed-form case: k flows of S bytes
// on one link of bandwidth B share it equally, so all finish at k·S/B.
func TestEqualFlowsFinishTogether(t *testing.T) {
	const k, size, bw = 7, 300e6, 10e6
	for _, policy := range []SharingPolicy{EqualShare, MaxMinFair} {
		eng := desim.New()
		n := New(eng, star(t, 2, bw), policy)
		var done []desim.Time
		for i := 0; i < k; i++ {
			n.Transfer(0, 1, size, func(*Flow) { done = append(done, eng.Now()) })
		}
		eng.Run()
		if len(done) != k {
			t.Fatalf("%v: %d of %d flows finished", policy, len(done), k)
		}
		for i, at := range done {
			if want := k * size / bw; !closeRel(at, want) {
				t.Errorf("%v: flow %d finished at %v, want k·S/B = %v", policy, i, at, want)
			}
		}
	}
}
