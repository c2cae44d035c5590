package sim

import "math"

// Multi-instance stepping.
//
// A fleet simulation runs N independent engines — one per replica, each with
// its own heap, collector and thread population — on one shared virtual
// clock. Nothing in the engines is shared; the Cluster merely interleaves
// their steps in global time order, stepping whichever engine's next event
// is earliest. Because an engine's clock only advances when it is stepped,
// the sequence of step times is non-decreasing and every engine's Now stays
// at or before the time of the last step taken — which is what lets a driver
// inject work (an arriving request) at time t into any engine with exact
// timer deadlines, provided it injects before the cluster steps past t.

// NextEventAt returns the virtual time of the engine's next event — the
// earliest quantum completion or live timer — without advancing anything. It
// reports false when the engine is quiescent. Both queues hold only live
// entries, so the peek reads their tops and changes nothing.
func (e *Engine) NextEventAt() (float64, bool) {
	run := e.runCount
	if e.naive {
		run = 0
		for _, t := range e.threads {
			if t.state == StateRunnable {
				run++
			}
		}
	}
	if run == 0 {
		at, ok := e.nextTimerAt()
		if !ok {
			return 0, false
		}
		if at < e.now {
			at = e.now
		}
		return at, true
	}

	rate := e.rateFor(run)
	dt := math.Inf(1)
	if e.naive {
		for _, t := range e.threads {
			if t.state != StateRunnable {
				continue
			}
			if d := t.remaining / rate; d < dt {
				dt = d
			}
		}
	} else {
		dt = (e.comp.peek().key - e.vs) / rate
	}
	if at, ok := e.nextTimerAt(); ok {
		if d := at - e.now; d < dt {
			dt = d
		}
	}
	if dt < 0 {
		dt = 0
	}
	return e.now + dt, true
}

// Cluster interleaves the steps of several independent engines in global
// virtual-time order. All engines advance on one logical clock: Step always
// steps the engine whose next event is earliest (ties broken by lowest
// index), so across the whole cluster event times are processed in
// non-decreasing order. Engines may still be driven directly between cluster
// steps (scheduling timers, injecting work, reading clocks).
//
// NewCluster maintains an indexed min-heap of (next-event time, engine index)
// entries in slot = engine index, so Peek costs O(log N) instead of the
// reference scan's O(N), and exact-time ties resolve to the lowest index,
// matching the linear scan. Every engine state change marks the engine dirty
// in its cluster; Peek re-keys each dirty engine's entry in place, or removes
// it once the engine has gone quiescent, before reading the top. A quiescent
// engine carries no entry; the dirty mark from the timer arming that wakes it
// (e.g. a fleet driver injecting an arrival) is what resurfaces it.
// NewReferenceCluster retains the O(N) scan as the differential oracle.
type Cluster struct {
	engines []*Engine
	linear  bool // reference cluster: scan every engine per Peek

	heap    idxHeap[int32]
	dirty   []int32 // engines whose entry must be re-derived before peeking
	isDirty []bool
}

// NewCluster builds a heap-indexed cluster over the given engines. The slice
// is retained; indices into it identify engines in Peek/Step results. Each
// engine notifies the cluster of state changes, so an engine may belong to
// at most one heap-indexed cluster at a time (reference clusters do not
// register and are exempt).
func NewCluster(engines ...*Engine) *Cluster {
	c := &Cluster{
		engines: engines,
		dirty:   make([]int32, 0, len(engines)),
		isDirty: make([]bool, len(engines)),
	}
	// At most one entry per engine: sized here so stepping never grows the
	// heap.
	c.heap.a = make([]idxEntry[int32], 0, len(engines))
	c.heap.pos = make([]int32, len(engines))
	for i := range c.heap.pos {
		c.heap.pos[i] = -1
	}
	for i, e := range engines {
		if e.cl != nil && e.cl != c {
			panic("sim: engine already belongs to another cluster")
		}
		e.cl, e.clIdx = c, int32(i)
		c.markDirty(int32(i))
	}
	return c
}

// NewReferenceCluster builds a cluster that re-derives every engine's next
// event on every Peek — the O(N) scan the event heap replaced, retained as
// the differential oracle. Its step sequence is byte-identical to
// NewCluster's over the same engines.
func NewReferenceCluster(engines ...*Engine) *Cluster {
	return &Cluster{engines: engines, linear: true}
}

// Len returns the number of engines in the cluster.
func (c *Cluster) Len() int { return len(c.engines) }

// Engine returns the i-th engine.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// markDirty queues engine i for re-derivation at the next Peek. Duplicate
// marks between peeks collapse, so a step that changes the engine many
// times (timer fires, thread transitions) costs one queue slot.
func (c *Cluster) markDirty(i int32) {
	if c.isDirty[i] {
		return
	}
	c.isDirty[i] = true
	c.dirty = append(c.dirty, i)
}

// refresh re-derives the next-event entries of every dirty engine: re-keyed
// in place while the engine has a next event, removed once it is quiescent.
func (c *Cluster) refresh() {
	for len(c.dirty) > 0 {
		i := c.dirty[len(c.dirty)-1]
		c.dirty = c.dirty[:len(c.dirty)-1]
		c.isDirty[i] = false
		at, alive := c.engines[i].NextEventAt()
		switch {
		case alive && c.heap.has(i):
			c.heap.fix(idxEntry[int32]{key: at, tie: i, slot: i})
		case alive:
			c.heap.push(idxEntry[int32]{key: at, tie: i, slot: i})
		case c.heap.has(i):
			c.heap.remove(i)
		}
	}
}

// Peek returns the index and next-event time of the engine the next Step
// would advance: the earliest next event across the cluster, lowest engine
// index on exact ties. ok is false when every engine is quiescent.
func (c *Cluster) Peek() (idx int, at float64, ok bool) {
	if c.linear {
		idx = -1
		for i, e := range c.engines {
			t, alive := e.NextEventAt()
			if !alive {
				continue
			}
			if idx < 0 || t < at {
				idx, at = i, t
			}
		}
		return idx, at, idx >= 0
	}
	c.refresh()
	if c.heap.len() == 0 {
		return -1, 0, false
	}
	top := c.heap.peek()
	return int(top.slot), top.key, true
}

// Step advances the globally earliest engine by one event and returns its
// index; ok is false (and nothing advances) when the whole cluster is
// quiescent.
func (c *Cluster) Step() (idx int, ok bool) {
	idx, _, ok = c.Peek()
	if !ok {
		return -1, false
	}
	c.engines[idx].Step()
	return idx, true
}
