package sim

import (
	"fmt"
	"math"
)

// Timer subsystem.
//
// Timers live in an engine-owned arena of nodes addressed by index, and the
// queue is an idxHeap keyed (deadline, sequence) in slot = node index, so
// same-instant timers fire in creation order. Cancel removes the entry at
// once, so the heap holds exactly the armed timers. Fired and cancelled
// nodes go back on a free list of indices, so steady-state timer traffic
// does not churn the Go allocator. Node reuse is made safe by sequence
// stamping: a Timer handle captures the sequence it was armed with, and
// Cancel on a handle whose node has since been recycled is a no-op.

// timerNode is the engine-owned state of one scheduled callback.
type timerNode struct {
	fn   func()
	seq  int64 // sequence of the current arming; 0 = on the free list
	next int32 // free-list link, -1 at the end
}

// Timer is a handle to a scheduled callback. It is a value: copying it is
// cheap and safe, and a handle outliving its timer (fired or cancelled) is
// inert.
type Timer struct {
	e   *Engine
	idx int32
	seq int64
}

// Cancel prevents the timer from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (tm Timer) Cancel() {
	e := tm.e
	if e == nil || e.tnodes[tm.idx].seq != tm.seq {
		return
	}
	e.timers.remove(tm.idx)
	e.releaseTimer(tm.idx)
	e.mutated()
}

// After schedules fn to run at now+d; d must not be NaN or infinite. It
// returns a handle that can cancel the timer before it fires.
func (e *Engine) After(d float64, fn func()) Timer {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("sim: After(%v): delay must be finite", d))
	}
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, fn)
}

// At schedules fn at the absolute virtual time t (a t already in the past
// fires at now); t must not be NaN or infinite. Unlike After(t-NowF()), the
// deadline is stored exactly as given — no relative round-trip through
// floating point — so a caller can reproduce a precomputed schedule
// bit-for-bit while arming timers one at a time.
func (e *Engine) At(t float64, fn func()) Timer {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: At(%v): deadline must be finite", t))
	}
	if t < e.now {
		t = e.now
	}
	return e.schedule(t, fn)
}

func (e *Engine) schedule(at float64, fn func()) Timer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	idx := e.freeTimer
	if idx >= 0 {
		e.freeTimer = e.tnodes[idx].next
	} else {
		idx = int32(len(e.tnodes))
		e.tnodes = append(e.tnodes, timerNode{})
	}
	e.timerSeq++
	e.tnodes[idx] = timerNode{fn: fn, seq: e.timerSeq, next: -1}
	e.timers.push(idxEntry[int64]{key: at, tie: e.timerSeq, slot: idx})
	e.mutated()
	return Timer{e: e, idx: idx, seq: e.timerSeq}
}

// releaseTimer returns a node to the free list. seq 0 marks it free, so any
// surviving handle's Cancel fails the sequence check and does nothing.
func (e *Engine) releaseTimer(idx int32) {
	e.tnodes[idx] = timerNode{next: e.freeTimer}
	e.freeTimer = idx
}

// nextTimerAt returns the deadline of the earliest armed timer.
func (e *Engine) nextTimerAt() (float64, bool) {
	if e.timers.len() == 0 {
		return 0, false
	}
	return e.timers.peek().key, true
}

// fireTimers dispatches every timer due at or before now, in (time,
// creation) order. Callbacks may schedule further timers; those are honoured
// too if already due.
func (e *Engine) fireTimers() {
	for e.timers.len() > 0 && e.timers.peek().key <= e.now+timeEps {
		idx := e.timers.pop().slot
		fn := e.tnodes[idx].fn
		e.releaseTimer(idx)
		e.timerFires++
		fn()
	}
}
