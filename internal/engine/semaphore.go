package engine

import "github.com/reproductions/cppe/internal/memdef"

// waiter is one queued Acquire: the callback plus the snapshot tag that can
// re-create it on restore (zero tag for legacy untagged acquires). Exactly
// one of fn / argFn is set; argFn+arg is the non-capturing variant (see
// ScheduleArg).
type waiter struct {
	tag   Tag
	fn    func()
	argFn func(uint64)
	arg   uint64
}

// Semaphore is a counting semaphore for event-driven code: up to cap holders
// at once, FIFO hand-off to waiters. It models structures with a bounded
// number of concurrent contexts, such as the 64-walk page table walker.
//
// The waiter FIFO is waiters[head:]. Release advances head instead of
// re-slicing, and the queue rewinds to the front of its array whenever it
// drains (or is compacted when it fills), so a busy semaphore reuses one
// backing array instead of allocating as its window slides.
type Semaphore struct {
	eng     *Engine
	cap     int
	held    int
	waiters []waiter
	head    int
	peak    int
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(eng *Engine, capacity int) *Semaphore {
	if capacity <= 0 {
		panic("engine: semaphore capacity must be positive")
	}
	return &Semaphore{eng: eng, cap: capacity}
}

// Reset returns the semaphore to the state NewSemaphore(eng, capacity)
// builds, keeping the waiter queue's backing array.
func (s *Semaphore) Reset(capacity int) {
	if capacity <= 0 {
		//cppelint:panicfree same construction-time guard as NewSemaphore; every caller clamps its capacity to at least one
		panic("engine: semaphore capacity must be positive")
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	s.head = 0
	s.cap = capacity
	s.held = 0
	s.peak = 0
}

// Acquire grants a slot to fn as soon as one is available (immediately, via a
// zero-delay event, if the semaphore is not full). Untagged acquires are for
// tests and tooling; production paths use AcquireTagged so in-flight grants
// and queued waiters stay checkpointable.
func (s *Semaphore) Acquire(fn func()) { s.AcquireTagged(Tag{}, fn) }

// AcquireTagged is Acquire with a snapshot tag describing fn, so that both
// the zero-delay grant event and a queued waiter can be serialized.
func (s *Semaphore) AcquireTagged(tag Tag, fn func()) {
	if s.grant() {
		s.eng.ScheduleTagged(0, tag, fn)
		return
	}
	s.enqueue(waiter{tag: tag, fn: fn})
}

// AcquireArgTagged is AcquireTagged's allocation-free variant: the grant
// runs fn(arg), so hot callers pass a long-lived callback instead of a
// per-acquire closure (see ScheduleArgTagged).
func (s *Semaphore) AcquireArgTagged(tag Tag, fn func(uint64), arg uint64) {
	if s.grant() {
		s.eng.ScheduleArgTagged(0, tag, fn, arg)
		return
	}
	s.enqueue(waiter{tag: tag, argFn: fn, arg: arg})
}

// grant takes a free slot, reporting false when the semaphore is full.
func (s *Semaphore) grant() bool {
	if s.held >= s.cap {
		return false
	}
	s.held++
	if s.held > s.peak {
		s.peak = s.held
	}
	return true
}

// enqueue appends w to the FIFO, compacting the live window to the front of
// the array instead of growing it when the array is full but has a consumed
// prefix.
func (s *Semaphore) enqueue(w waiter) {
	if len(s.waiters) == cap(s.waiters) && s.head > 0 {
		n := copy(s.waiters, s.waiters[s.head:])
		clear(s.waiters[n:])
		s.waiters = s.waiters[:n]
		s.head = 0
	}
	s.waiters = append(s.waiters, w)
}

// Release returns a slot; the oldest waiter (if any) is granted it.
func (s *Semaphore) Release() {
	if s.held <= 0 {
		//cppelint:panicfree double-release is a component bug; counting past zero would mask lost wakeups, and the harness recovers the panic into Result.Err
		panic("engine: semaphore released below zero")
	}
	if s.head < len(s.waiters) {
		next := s.waiters[s.head]
		s.waiters[s.head] = waiter{}
		s.head++
		if s.head == len(s.waiters) {
			s.waiters = s.waiters[:0]
			s.head = 0
		}
		if next.argFn != nil {
			s.eng.ScheduleArgTagged(0, next.tag, next.argFn, next.arg)
		} else {
			s.eng.ScheduleTagged(0, next.tag, next.fn)
		}
		return
	}
	s.held--
}

// InUse returns the number of currently held slots.
func (s *Semaphore) InUse() int { return s.held }

// Waiting returns the number of queued waiters.
func (s *Semaphore) Waiting() int { return len(s.waiters) - s.head }

// Peak returns the maximum concurrent holders observed.
func (s *Semaphore) Peak() int { return s.peak }

// Latency is a convenience for modeling a fixed-latency, fully pipelined
// stage: After schedules fn after lat cycles.
func After(eng *Engine, lat memdef.Cycle, fn func()) { eng.Schedule(lat, fn) }
