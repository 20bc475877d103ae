// Package des implements a small deterministic discrete-event simulation
// kernel used by the network simulator, and the event queue it shares with
// the Monte-Carlo contention characterizer.
//
// Design:
//   - Simulated time is a time.Duration measured from the start of the
//     simulation; 802.15.4 timing (16 µs symbols, 320 µs backoff slots) is
//     exactly representable in nanoseconds.
//   - Events scheduled for the same instant fire in scheduling order
//     (FIFO), which makes runs reproducible for a fixed seed.
//   - The kernel is single-goroutine by design: the dispatcher runs
//     synchronously inside Step/Run and may schedule or cancel further
//     events.
//
// # One event queue
//
// Events live in a Queue (queue.go): value-typed 40-byte entries ordered by
// (key, seq) across two bands — no per-event heap nodes, no container/heap
// boxing through `any`, no pointer chasing during sift. Steady-state
// scheduling therefore allocates nothing. The near band is a flat 4-ary
// min-heap. The far band is a sorted run consumed from the front: an event
// at or after its tail appends in O(1) and pops in O(1), so a model that
// pre-schedules its timeline in ascending order (netsim's beacon grid,
// lifetime epochs) parks it for free and fast-forwards across idle spans at
// one comparison per event instead of one sift. A pre-drawn batch that is
// not in order — the contention Monte-Carlo's arrivals — is bulk-loaded
// into the far band and radix-sorted once. Pops always compare the near
// root against the far head and take the global minimum, so the firing
// sequence is identical to a single heap's, event for event.
//
// Events are typed: the model registers one Dispatcher function and
// schedules events as a (kind, actor, arg) triple via AtEvent/ScheduleEvent.
// No closure is allocated per event; the dispatcher demultiplexes on the
// small kind enum. This is how netsim drives its per-node state machines.
//
// Cancellation works through EventID handles backed by a generation-checked
// slot table with a free list: cancelled or fired slots are recycled for
// later events, and a stale EventID (whose slot has been reused) is
// harmlessly ignored. Cancelled events are removed lazily when they surface
// at the queue front.
package des

import (
	"fmt"
	"time"

	"dense802154/internal/engine"
)

// Dispatcher receives typed events scheduled with AtEvent/ScheduleEvent:
// kind is the model's event enum, actor identifies the entity the event
// concerns (a node index, say; -1 for global events) and arg carries the
// event's time payload (which often differs from the firing instant — a
// CCA event fires one turnaround early but targets a slot boundary).
type Dispatcher func(kind, actor int32, arg time.Duration)

// EventID is a cancellable handle to a scheduled event. The zero value is
// not a valid handle and cancelling it is a no-op.
type EventID struct {
	slot int32
	gen  uint32
}

// slot states.
const (
	slotPending uint8 = iota
	slotCancelled
)

// slot tracks the lifecycle of one scheduled event for cancellation; slots
// are recycled through a free list once their event fires or its
// cancellation is collected.
type slot struct {
	gen   uint32
	state uint8
}

// Simulator is a discrete-event simulator instance. Its queue entries carry
// the firing instant as Key, the cancellation slot as Slot and the typed
// event as (Kind, Actor, Arg).
type Simulator struct {
	now      time.Duration
	q        Queue
	slots    []slot
	free     []int32
	live     int // scheduled and not cancelled
	seq      uint64
	rng      engine.RNG
	fired    uint64
	maxDepth int // deepest the queue has grown this run
	dispatch Dispatcher
}

// New returns a simulator whose random source is seeded with seed.
// Identical seeds and identical scheduling sequences produce identical runs.
func New(seed int64) *Simulator {
	return &Simulator{rng: engine.NewRNG(seed)}
}

// Reset rewinds the simulator to the state New(seed) would produce while
// keeping the queue, slot-table and free-list backing storage, so a recycled
// simulator schedules its next run without growing allocations. The
// registered dispatcher is kept. Every outstanding EventID is invalidated
// (slot generations are bumped, exactly as if the events had fired);
// holding a handle across Reset and cancelling it later is a harmless
// no-op, the same guarantee stale handles already have.
func (s *Simulator) Reset(seed int64) {
	s.q.Reset()
	s.free = s.free[:0]
	for i := range s.slots {
		s.slots[i].gen++
		s.slots[i].state = slotPending
		s.free = append(s.free, int32(i))
	}
	s.now = 0
	s.live = 0
	s.seq = 0
	s.fired = 0
	s.maxDepth = 0
	s.rng = engine.NewRNG(seed)
}

// SetDispatcher registers the typed-event dispatcher. It must be set before
// the first AtEvent/ScheduleEvent call.
func (s *Simulator) SetDispatcher(d Dispatcher) { s.dispatch = d }

// Now reports the current simulated time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand exposes the simulator's deterministic random source.
func (s *Simulator) Rand() *engine.RNG { return &s.rng }

// Fired reports the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// MaxHeapDepth reports the deepest the event queue has grown since the last
// Reset — the peak number of simultaneously pending entries across both
// queue bands, a direct measure of scheduling pressure.
func (s *Simulator) MaxHeapDepth() int { return s.maxDepth }

// FarDepth reports the number of entries currently parked in the far band
// (cancelled entries included until they are lazily collected). It exists
// for tests and benchmarks that assert the fast-forward band is actually
// absorbing a pre-scheduled timeline.
func (s *Simulator) FarDepth() int { return s.q.FarLen() }

// Pending reports the number of events currently scheduled (cancelled
// events are excluded even before their slots are collected).
func (s *Simulator) Pending() int { return s.live }

// ScheduleEvent queues a typed event after delay (see Dispatcher).
func (s *Simulator) ScheduleEvent(delay time.Duration, kind, actor int32, arg time.Duration) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return s.AtEvent(s.now+delay, kind, actor, arg)
}

// AtEvent queues a typed event at absolute simulated time t (>= Now). The
// (kind, actor, arg) triple is delivered to the registered Dispatcher when
// the event fires. AtEvent allocates nothing in steady state.
func (s *Simulator) AtEvent(t time.Duration, kind, actor int32, arg time.Duration) EventID {
	if s.dispatch == nil {
		panic("des: AtEvent without a dispatcher (call SetDispatcher first)")
	}
	return s.push(t, kind, actor, arg)
}

// push allocates a slot (reusing the free list) and queues the event.
func (s *Simulator) push(t time.Duration, kind, actor int32, arg time.Duration) EventID {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1})
		id = int32(len(s.slots) - 1)
	}
	sl := &s.slots[id]
	sl.state = slotPending
	s.q.Push(Entry{Key: int64(t), Seq: s.seq, Slot: id, Kind: kind, Actor: actor, Arg: int64(arg)})
	s.seq++
	s.live++
	if depth := s.q.Len(); depth > s.maxDepth {
		s.maxDepth = depth
	}
	return EventID{slot: id, gen: sl.gen}
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled or zero-valued handle is a no-op.
func (s *Simulator) Cancel(id EventID) {
	if id.gen == 0 || int(id.slot) >= len(s.slots) {
		return
	}
	sl := &s.slots[id.slot]
	if sl.gen != id.gen || sl.state != slotPending {
		return
	}
	sl.state = slotCancelled
	s.live--
}

// Cancelled reports whether the event was cancelled before firing. A handle
// whose event has already fired reports false; the zero handle reports
// false.
func (s *Simulator) Cancelled(id EventID) bool {
	if id.gen == 0 || int(id.slot) >= len(s.slots) {
		return false
	}
	sl := &s.slots[id.slot]
	return sl.gen == id.gen && sl.state == slotCancelled
}

// release recycles a slot for reuse; bumping the generation invalidates any
// outstanding EventID.
func (s *Simulator) release(id int32) {
	s.slots[id].gen++
	s.free = append(s.free, id)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	ev, ok := s.q.Pop()
	for ok && s.slots[ev.Slot].state == slotCancelled {
		s.release(ev.Slot) // collect a cancelled entry
		ev, ok = s.q.Pop()
	}
	if !ok {
		return false
	}
	s.release(ev.Slot)
	s.live--
	s.now = time.Duration(ev.Key)
	s.fired++
	s.dispatch(ev.Kind, ev.Actor, time.Duration(ev.Arg))
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled after the deadline remain queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for {
		at, ok := s.peek()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peek reports the timestamp of the next non-cancelled event, collecting
// cancelled entries along the way.
func (s *Simulator) peek() (time.Duration, bool) {
	for {
		ev := s.q.Min()
		if ev == nil {
			return 0, false
		}
		if s.slots[ev.Slot].state != slotCancelled {
			return time.Duration(ev.Key), true
		}
		s.release(ev.Slot)
		s.q.Pop()
	}
}
