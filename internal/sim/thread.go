package sim

import (
	"fmt"
	"math"
)

// State describes what a thread is doing.
type State uint8

// Thread states.
const (
	StateIdle     State = iota // created or between quanta; consumes nothing
	StateRunnable              // executing a quantum, sharing the CPUs
	StateBlocked               // suspended mid-quantum (e.g. by a STW pause)
	StateDone                  // finished; will never run again
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Thread is a logical thread of execution in the simulated machine: a mutator
// worker, a GC worker, or a background task. Threads execute CPU quanta; the
// engine accounts their CPU time toward the task clock.
//
// Under the fast stepper, accounting is lazy: while a quantum is in flight
// ("active"), cpu and remaining are implied by the engine's service credit
// (cpu + S − startS consumed, finishS − S left) and materialized only when
// the thread leaves the runnable set or an accessor is called. The reference
// stepper keeps both fields eagerly up to date and never sets active.
type Thread struct {
	id         int32 // creation index; the thread's completion-heap slot
	state      State
	active     bool // fast stepper: quantum in flight, counted in aggregates
	name       string
	eng        *Engine
	remaining  float64 // CPU ns left in the current quantum (stale while active)
	startS     float64 // service credit when the current stint began
	finishS    float64 // service credit at which the current quantum completes
	onDone     func()
	cpu        float64 // materialized CPU ns consumed (see CPU)
	kernelFrac float64 // fraction of this thread's CPU attributed to kernel mode
	blockedAt  float64 // wall time at which the thread last blocked
	blockedNS  float64 // cumulative wall time spent blocked
}

// NewThread registers a new logical thread with the engine. Threads start
// idle.
func (e *Engine) NewThread(name string) *Thread {
	t := &Thread{id: int32(len(e.threads)), name: name, eng: e}
	e.threads = append(e.threads, t)
	return t
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's current state.
func (t *Thread) State() State { return t.state }

// CPU returns the total CPU nanoseconds this thread has consumed, including
// the in-flight portion of a quantum still executing.
func (t *Thread) CPU() float64 {
	if t.active {
		return t.cpu + (t.eng.vs - t.startS)
	}
	return t.cpu
}

// KernelCPU returns the portion of this thread's CPU time attributed to
// kernel mode, per the fraction set with SetKernelFraction.
func (t *Thread) KernelCPU() float64 { return t.CPU() * t.kernelFrac }

// BlockedTime returns the cumulative wall-clock time this thread has spent in
// StateBlocked.
func (t *Thread) BlockedTime() float64 { return t.blockedNS }

// SetKernelFraction declares what fraction of this thread's CPU time should
// be attributed to kernel mode (PKP accounting). It is a static property of
// the kind of work the thread does, e.g. lock-heavy or I/O-heavy code.
func (t *Thread) SetKernelFraction(f float64) {
	if f < 0 || f > 1 {
		panic(fmt.Sprintf("sim: kernel fraction %v out of [0,1]", f))
	}
	t.kernelFrac = f
}

// Exec schedules the thread to consume cpuNS nanoseconds of CPU and then call
// done. The thread must be idle and cpuNS finite. Quanta shorter than 1ns are
// rounded up so a zero-cost callback chain cannot stall the clock.
func (t *Thread) Exec(cpuNS float64, done func()) {
	if math.IsNaN(cpuNS) || math.IsInf(cpuNS, 0) {
		panic(fmt.Sprintf("sim: Exec(%v) on thread %q: duration must be finite", cpuNS, t.name))
	}
	if t.state != StateIdle {
		panic(fmt.Sprintf("sim: Exec on %s thread %q", t.state, t.name))
	}
	if cpuNS < 1 {
		cpuNS = 1
	}
	t.remaining = cpuNS
	t.onDone = done
	t.state = StateRunnable
	if !t.eng.naive {
		t.eng.activate(t)
	}
	t.eng.mutated()
}

// releaseQuantum takes an active thread out of the runnable set mid-quantum:
// consumed CPU is materialized, the residual work is captured in remaining,
// and the completion-heap entry is removed. A no-op for inactive threads
// (reference stepper, or a quantum whose completion has already been
// collected this event).
func (t *Thread) releaseQuantum() {
	if !t.active {
		return
	}
	e := t.eng
	e.comp.remove(t.id)
	e.deactivate(t)
	t.remaining = t.finishS - e.vs
	if t.remaining < 0 {
		t.remaining = 0
	}
}

// Block suspends a runnable thread mid-quantum, preserving its remaining
// work. Blocking an idle thread pins it idle-blocked so a later Exec must
// wait for Unblock; blocking a blocked or done thread panics.
func (t *Thread) Block() {
	switch t.state {
	case StateRunnable, StateIdle:
		t.releaseQuantum()
		t.state = StateBlocked
		t.blockedAt = t.eng.now
		t.eng.mutated()
	default:
		panic(fmt.Sprintf("sim: Block on %s thread %q", t.state, t.name))
	}
}

// Unblock resumes a blocked thread. If it had remaining quantum work it
// becomes runnable again; otherwise it returns to idle.
func (t *Thread) Unblock() {
	if t.state != StateBlocked {
		panic(fmt.Sprintf("sim: Unblock on %s thread %q", t.state, t.name))
	}
	t.blockedNS += t.eng.now - t.blockedAt
	if t.remaining > 0 {
		t.state = StateRunnable
		if !t.eng.naive {
			t.eng.activate(t)
		}
	} else {
		t.state = StateIdle
	}
	t.eng.mutated()
}

// Abandon discards the thread's current quantum, returning it to idle
// without running the completion callback. CPU already consumed stays
// accounted. It is how a cancelled task (e.g. an aborted concurrent GC
// cycle) releases its worker.
func (t *Thread) Abandon() {
	if t.state == StateDone {
		panic(fmt.Sprintf("sim: Abandon on done thread %q", t.name))
	}
	if t.state == StateBlocked {
		t.blockedNS += t.eng.now - t.blockedAt
	}
	t.releaseQuantum()
	t.state = StateIdle
	t.onDone = nil
	t.remaining = 0
	t.eng.mutated()
}

// Finish marks the thread permanently done. Any in-flight quantum is
// abandoned without its completion callback running; an in-flight blocked
// interval is credited to BlockedTime, as Abandon does.
func (t *Thread) Finish() {
	if t.state == StateBlocked {
		t.blockedNS += t.eng.now - t.blockedAt
	}
	t.releaseQuantum()
	t.state = StateDone
	t.onDone = nil
	t.remaining = 0
	t.eng.mutated()
}

// Threads returns all threads registered with the engine, in creation order.
func (e *Engine) Threads() []*Thread { return e.threads }
