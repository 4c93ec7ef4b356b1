package engine

import (
	"errors"
	"fmt"
	"sort"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/snapshot"
)

// ErrUntagged is the failure recorded by EncodeQueue (or a Semaphore encoder)
// when an in-flight event or waiter carries no snapshot tag. Untagged events
// come from the legacy Schedule* entry points (tests, ad-hoc tooling); a
// machine with one in flight cannot be checkpointed, only refused.
var ErrUntagged = errors.New("engine: in-flight event without snapshot tag; state is not checkpointable")

// Resolver maps a serialized event tag back to a callback during restore. It
// must return a structured error (not panic) for unknown or out-of-range
// tags so corrupted checkpoints are rejected cleanly.
type Resolver func(tag Tag) (func(), error)

// EncodeState writes the engine's scalar clock state: current cycle, the
// global sequence counter, the fired-event count, and the periodic-hook
// phase. The watchdog is deliberately excluded — it is wall-clock state that
// never influences a clean run's result.
func (e *Engine) EncodeState(w *snapshot.Writer) {
	w.Mark("ENGS")
	w.PutU64(uint64(e.now))
	w.PutU64(e.seq)
	w.PutU64(e.fired)
	w.PutU64(uint64(e.periodicLast))
}

// DecodeState restores the scalars written by EncodeState. It must run
// before DecodeQueue so queue insertion sees the restored clock.
func (e *Engine) DecodeState(r *snapshot.Reader) {
	r.ExpectMark("ENGS")
	e.now = memdef.Cycle(r.GetU64())
	e.seq = r.GetU64()
	e.fired = r.GetU64()
	e.periodicLast = memdef.Cycle(r.GetU64())
}

// EncodeQueue writes every pending event as (at, seq, tag), sorted by
// (at, seq) — the exact global firing order. An untagged pending event makes
// the queue unserializable and records ErrUntagged on w.
func (e *Engine) EncodeQueue(w *snapshot.Writer) {
	w.Mark("ENGQ")
	nodes := make([]*eventNode, 0, e.pending)
	for s := range e.ring {
		for n := e.ring[s].head; n != nil; n = n.next {
			nodes = append(nodes, n)
		}
	}
	nodes = append(nodes, e.overflow...)
	sort.Slice(nodes, func(i, j int) bool { return eventLess(nodes[i], nodes[j]) })
	w.PutU64(uint64(len(nodes)))
	for _, n := range nodes {
		if n.tag.Kind == 0 {
			w.Fail(fmt.Errorf("%w (at=%d seq=%d)", ErrUntagged, n.at, n.seq))
			return
		}
		w.PutU64(uint64(n.at))
		w.PutU64(n.seq)
		w.PutU16(n.tag.Kind)
		w.PutU64(n.tag.A)
		w.PutU64(n.tag.B)
	}
}

// DecodeQueue rebuilds the event queue from the frame written by EncodeQueue,
// resolving each tag to a callback and inserting nodes with their original
// (at, seq) so the restored engine fires them in the identical order and
// assigns identical sequence numbers to everything scheduled later. It must
// run after DecodeState and after every component has restored the state its
// resolver closures capture.
func (e *Engine) DecodeQueue(r *snapshot.Reader, resolve Resolver) {
	r.ExpectMark("ENGQ")
	// 26 bytes per event: at + seq + kind + A + B.
	count := r.GetCount(26)
	var prev *eventNode
	for i := 0; i < count; i++ {
		at := memdef.Cycle(r.GetU64())
		seq := r.GetU64()
		tag := Tag{Kind: r.GetU16(), A: r.GetU64(), B: r.GetU64()}
		if r.Err() != nil {
			return
		}
		if at < e.now {
			r.Failf("queued event at cycle %d before restored now %d", at, e.now)
			return
		}
		if seq > e.seq {
			r.Failf("queued event seq %d beyond restored counter %d", seq, e.seq)
			return
		}
		if prev != nil && !eventLess(prev, &eventNode{at: at, seq: seq}) {
			r.Failf("queue not strictly ordered at event %d", i)
			return
		}
		fn, err := resolve(tag)
		if err != nil {
			r.Fail(fmt.Errorf("%w: event %d: %v", snapshot.ErrCorrupt, i, err))
			return
		}
		n := e.alloc()
		n.fn = fn
		n.tag = tag
		e.insertRaw(n, at, seq)
		prev = n
	}
}

// insertRaw enqueues n with an explicit (at, seq) taken from a checkpoint,
// without advancing the engine's sequence counter. Callers must insert in
// ascending (at, seq) order so ring buckets stay FIFO-ordered.
func (e *Engine) insertRaw(n *eventNode, at memdef.Cycle, seq uint64) {
	n.at = at
	n.seq = seq
	e.pending++
	if at-e.now < ringWindow {
		s := int(at & ringMask)
		b := &e.ring[s]
		if b.head == nil {
			b.head = n
			e.ringBits[s>>6] |= 1 << uint(s&63)
			e.ringCount++
		} else {
			b.tail.next = n
		}
		b.tail = n
		return
	}
	e.heapPush(n)
}

// Encode writes the resource's booking horizon and utilization counter.
func (r *Resource) Encode(w *snapshot.Writer) {
	w.PutU64(uint64(r.free))
	w.PutU64(uint64(r.busy))
}

// Decode restores the state written by Encode.
func (r *Resource) Decode(rd *snapshot.Reader) {
	r.free = memdef.Cycle(rd.GetU64())
	r.busy = memdef.Cycle(rd.GetU64())
}

// Encode writes the semaphore's occupancy and the tags of its queued
// waiters. An untagged waiter records ErrUntagged on w.
func (s *Semaphore) Encode(w *snapshot.Writer) {
	w.Mark("SEM ")
	w.PutU64(uint64(s.held))
	w.PutU64(uint64(s.peak))
	w.PutU64(uint64(s.Waiting()))
	for _, wt := range s.waiters[s.head:] {
		if wt.tag.Kind == 0 {
			w.Fail(fmt.Errorf("%w (semaphore waiter)", ErrUntagged))
			return
		}
		w.PutU16(wt.tag.Kind)
		w.PutU64(wt.tag.A)
		w.PutU64(wt.tag.B)
	}
}

// Decode restores the semaphore from the frame written by Encode, resolving
// each waiter tag back to its callback.
func (s *Semaphore) Decode(r *snapshot.Reader, resolve Resolver) {
	r.ExpectMark("SEM ")
	s.held = r.GetInt()
	s.peak = r.GetInt()
	if s.held < 0 || s.held > s.cap {
		r.Failf("semaphore held %d out of [0,%d]", s.held, s.cap)
		return
	}
	n := r.GetCount(18)
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	s.head = 0
	for i := 0; i < n; i++ {
		tag := Tag{Kind: r.GetU16(), A: r.GetU64(), B: r.GetU64()}
		if r.Err() != nil {
			return
		}
		fn, err := resolve(tag)
		if err != nil {
			r.Fail(fmt.Errorf("%w: semaphore waiter %d: %v", snapshot.ErrCorrupt, i, err))
			return
		}
		s.waiters = append(s.waiters, waiter{tag: tag, fn: fn})
	}
}
