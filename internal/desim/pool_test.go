package desim

import (
	"testing"
	"testing/quick"
)

// TestPendingExactUnderCancellation pins the Pending contract: cancelled
// events stop counting immediately, even though the lazy queue drains
// their nodes later.
func TestPendingExactUnderCancellation(t *testing.T) {
	e := New()
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = e.Schedule(Time(i+1), func() {})
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 10; i += 3 {
		e.Cancel(evs[i])
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	e.Cancel(evs[0]) // double cancel must not double-count
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending after double cancel = %d, want 6", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}

// TestStaleHandleCancelIsNoOp is the pool-safety regression: once a node
// is recycled for a new event, a handle to its previous occupant must not
// be able to cancel the new one.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	e := New()
	old := e.Schedule(1, func() {})
	e.Run() // old fires; its node returns to the free list
	ran := false
	fresh := e.Schedule(1, func() { ran = true }) // recycles the node
	e.Cancel(old)                                 // stale: must not touch fresh
	e.Run()
	if !ran {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if fresh.Canceled() {
		t.Fatal("recycled event marked cancelled by stale handle")
	}
}

// TestRescheduleMatchesCancelPlusSchedule pins Reschedule's documented
// equivalence: it assigns a fresh sequence number, so among equal-time
// events the rescheduled one sorts exactly where a fresh Schedule would.
func TestRescheduleMatchesCancelPlusSchedule(t *testing.T) {
	e := New()
	var order []string
	a := e.Schedule(5, func() { order = append(order, "a") })
	e.Schedule(5, func() { order = append(order, "b") })
	e.Reschedule(a, 5) // same time, but now later seq than b
	e.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestRescheduleMovesTime(t *testing.T) {
	e := New()
	var order []string
	late := e.Schedule(10, func() { order = append(order, "late") })
	e.Schedule(2, func() {
		order = append(order, "mid")
		e.Reschedule(late, 1) // fires at 3, before the event at 5
	})
	e.Schedule(5, func() { order = append(order, "five") })
	e.Run()
	want := []string{"mid", "late", "five"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
}

func TestReschedulePanicsOnDeadEvent(t *testing.T) {
	for name, fn := range map[string]func(e *Engine){
		"fired": func(e *Engine) {
			ev := e.Schedule(1, func() {})
			e.Run()
			e.Reschedule(ev, 1)
		},
		"cancelled": func(e *Engine) {
			ev := e.Schedule(1, func() {})
			e.Cancel(ev)
			e.Reschedule(ev, 1)
		},
		"zero handle": func(e *Engine) {
			e.Reschedule(Event{}, 1)
		},
		"negative delay": func(e *Engine) {
			ev := e.Schedule(1, func() {})
			e.Reschedule(ev, -1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn(New())
		}()
	}
}

// TestCompactionKeepsOrder drives the queue far past the dead-node
// compaction threshold and checks that live events still pop in (time,
// seq) order with nothing lost.
func TestCompactionKeepsOrder(t *testing.T) {
	e := New()
	var got []int
	var evs []Event
	const total = 4096
	for i := 0; i < total; i++ {
		i := i
		evs = append(evs, e.Schedule(Time(i%101), func() { got = append(got, i) }))
	}
	// Cancel 75% so compaction triggers repeatedly.
	for i := 0; i < total; i++ {
		if i%4 != 0 {
			e.Cancel(evs[i])
		}
	}
	if got := e.Pending(); got != total/4 {
		t.Fatalf("Pending = %d, want %d", got, total/4)
	}
	e.Run()
	if len(got) != total/4 {
		t.Fatalf("fired %d, want %d", len(got), total/4)
	}
	for _, v := range got {
		if v%4 != 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	// Survivors at the same timestamp must preserve scheduling order.
	seen := map[Time][]int{}
	for _, v := range got {
		at := Time(v % 101)
		prev := seen[at]
		if len(prev) > 0 && prev[len(prev)-1] > v {
			t.Fatalf("tie order violated at t=%v: %d after %d", at, v, prev[len(prev)-1])
		}
		seen[at] = append(seen[at], v)
	}
}

// TestSteadyStateStepDoesNotAllocate is the zero-alloc acceptance check
// for the pooled queue: a self-rescheduling population stepping forever
// must not touch the heap allocator.
func TestSteadyStateStepDoesNotAllocate(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ {
		d := Time(1 + i%7)
		var fn func()
		fn = func() { e.Schedule(d, fn) }
		e.Schedule(d, fn)
	}
	// Warm up so queue and free list reach steady-state capacity.
	for i := 0; i < 1024; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state Step allocates %v/op, want 0", allocs)
	}
}

// Property: a random interleaving of schedule, cancel, reschedule, and
// step keeps Pending equal to a reference count of live events.
func TestQuickPendingConsistent(t *testing.T) {
	f := func(ops []uint8) bool {
		e := New()
		type tracked struct {
			ev       Event
			fired    *bool
			canceled bool
		}
		var live []tracked
		count := func() int {
			n := 0
			for i := range live {
				if !*live[i].fired && !live[i].canceled {
					n++
				}
			}
			return n
		}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				fired := new(bool)
				f := func() { *fired = true }
				live = append(live, tracked{ev: e.Schedule(Time(op%7), f), fired: fired})
			case 2:
				if len(live) > 0 {
					i := int(op) % len(live)
					if !*live[i].fired && !live[i].canceled {
						e.Cancel(live[i].ev)
						live[i].canceled = true
					}
				}
			case 3:
				e.Step()
			}
			if e.Pending() != count() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
