package sim

import (
	"fmt"
	"math"
	"testing"
)

// Differential property test: the virtual-service-time stepper and the naive
// reference stepper are driven through the same seeded randomized schedule of
// Exec / Block / Unblock / Abandon / Finish / timer / cancel traffic, and
// must produce identical event traces and telemetry within timeEps. After
// every step both engines must also hold no stale queue entries
// (checkQueues).
//
// The script's only inputs are the draw stream and engine-visible state
// (State(), Now()); if the two steppers are equivalent, every callback fires
// in the same order, both consume the stream identically, and the traces
// match. Any semantic divergence compounds instead of hiding. The stream is
// an RNG for the seeded property test and decoded fuzz bytes for
// FuzzEngineVsReference.

// drawSource supplies the script's random draws.
type drawSource interface{ Uint64() uint64 }

type propEvent struct {
	kind string // "done", "timer"
	id   int
	at   float64
}

type propResult struct {
	trace   []propEvent
	now     float64
	task    float64
	events  int64
	cpu     []float64
	blocked []float64
	states  []State
}

func runPropScript(rng drawSource, reference bool) (propResult, error) {
	hw := 1 + int(rng.Uint64()%4)
	var e *Engine
	if reference {
		e = NewReferenceEngine(hw, nil)
	} else {
		e = NewEngine(hw, nil)
	}

	var res propResult
	nW := 2 + int(rng.Uint64()%5)
	ths := make([]*Thread, nW)
	opsLeft := make([]int, nW)
	for i := range ths {
		ths[i] = e.NewThread(fmt.Sprintf("w%d", i))
		opsLeft[i] = 3 + int(rng.Uint64()%12)
	}

	// Each worker chains random quanta until its budget runs out.
	var kick func(i int)
	kick = func(i int) {
		if opsLeft[i] <= 0 || ths[i].State() != StateIdle {
			return
		}
		opsLeft[i]--
		work := 1 + float64(rng.Uint64()%1500)
		ths[i].Exec(work, func() {
			res.trace = append(res.trace, propEvent{"done", i, e.NowF()})
			kick(i)
		})
	}

	// armed counts the script's timers that have neither fired nor been
	// cancelled, tracked from the script's side so that the check after
	// each step does not trust the engine's own bookkeeping.
	armed := 0
	after := func(d float64, fn func()) Timer {
		armed++
		return e.After(d, func() {
			armed--
			fn()
		})
	}

	// Meddler timers perturb the workers: STW-style block/unblock pairs,
	// abandons, finishes, extra work injection, and cancellation games.
	nT := 4 + int(rng.Uint64()%10)
	for j := 0; j < nT; j++ {
		j := j
		at := float64(1 + rng.Uint64()%4000)
		tgt := ths[int(rng.Uint64()%uint64(nW))]
		switch rng.Uint64() % 6 {
		case 0, 1: // pause the target for a while
			delay := float64(1 + rng.Uint64()%800)
			after(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if s := tgt.State(); s == StateRunnable || s == StateIdle {
					tgt.Block()
					after(delay, func() {
						if tgt.State() == StateBlocked {
							tgt.Unblock()
						}
					})
				}
			})
		case 2: // abandon the target's quantum
			after(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if tgt.State() != StateDone {
					tgt.Abandon()
				}
			})
		case 3: // retire the target (possibly mid-block: the Finish bugfix path)
			after(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if tgt.State() != StateDone {
					tgt.Finish()
				}
			})
		case 4: // cancellation: the cancel may land before or after the fire
			fired, cancelled := false, false
			tm := after(at, func() {
				fired = true
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
			})
			after(float64(1+rng.Uint64()%6000), func() {
				if !fired && !cancelled {
					cancelled = true
					armed--
				}
				tm.Cancel()
			})
		case 5: // inject extra work into an idle target
			after(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if tgt.State() == StateIdle {
					opsLeft[idOf(ths, tgt)] += 2
					kick(idOf(ths, tgt))
				}
			})
		}
	}

	for i := range ths {
		kick(i)
	}
	check := func() error {
		if n := e.timers.len(); n != armed {
			return fmt.Errorf("timer heap holds %d entries, script has %d timers armed", n, armed)
		}
		return checkQueues(e)
	}
	if err := check(); err != nil {
		return res, err
	}
	for e.Step() {
		if err := check(); err != nil {
			return res, fmt.Errorf("after event %d: %w", e.Events(), err)
		}
	}

	res.now = e.NowF()
	res.task = e.TaskClock()
	res.events = e.Events()
	for _, t := range ths {
		res.cpu = append(res.cpu, t.CPU())
		res.blocked = append(res.blocked, t.BlockedTime())
		res.states = append(res.states, t.State())
	}
	return res, nil
}

// checkQueues verifies that the engine's queues hold live entries only: the
// completion heap one entry per in-flight quantum, the timer heap one entry
// per armed, uncancelled timer (an arena node with a nonzero sequence), and
// both heaps ordered with position indexes that agree with them.
func checkQueues(e *Engine) error {
	if n := e.comp.len(); n != e.runCount {
		return fmt.Errorf("completion heap holds %d entries, runCount is %d", n, e.runCount)
	}
	armed := 0
	for i, n := range e.tnodes {
		if n.seq == 0 {
			continue
		}
		armed++
		if !e.timers.has(int32(i)) {
			return fmt.Errorf("armed timer node %d has no heap entry", i)
		}
	}
	if n := e.timers.len(); n != armed {
		return fmt.Errorf("timer heap holds %d entries, %d timers armed", n, armed)
	}
	if err := checkIdxHeap(&e.comp); err != nil {
		return fmt.Errorf("completion heap: %w", err)
	}
	if err := checkIdxHeap(&e.timers); err != nil {
		return fmt.Errorf("timer heap: %w", err)
	}
	return nil
}

// comparePropResults demands that the fast and reference runs agree.
func comparePropResults(fast, ref propResult) error {
	if len(fast.trace) != len(ref.trace) {
		return fmt.Errorf("trace length %d (fast) vs %d (reference)", len(fast.trace), len(ref.trace))
	}
	for k := range fast.trace {
		f, r := fast.trace[k], ref.trace[k]
		if f.kind != r.kind || f.id != r.id || !propClose(f.at, r.at) {
			return fmt.Errorf("trace[%d] = %+v (fast) vs %+v (reference)", k, f, r)
		}
	}
	if !propClose(fast.now, ref.now) {
		return fmt.Errorf("final now %v vs %v", fast.now, ref.now)
	}
	if !propClose(fast.task, ref.task) {
		return fmt.Errorf("task clock %v vs %v", fast.task, ref.task)
	}
	if fast.events != ref.events {
		return fmt.Errorf("events %d vs %d", fast.events, ref.events)
	}
	for i := range fast.cpu {
		if !propClose(fast.cpu[i], ref.cpu[i]) {
			return fmt.Errorf("thread %d cpu %v vs %v", i, fast.cpu[i], ref.cpu[i])
		}
		if !propClose(fast.blocked[i], ref.blocked[i]) {
			return fmt.Errorf("thread %d blocked %v vs %v", i, fast.blocked[i], ref.blocked[i])
		}
		if fast.states[i] != ref.states[i] {
			return fmt.Errorf("thread %d state %v vs %v", i, fast.states[i], ref.states[i])
		}
	}
	return nil
}

// runPropPair runs the script on both steppers, each over its own copy of
// the draw stream, and reports the first failure.
func runPropPair(src func() drawSource) error {
	fast, err := runPropScript(src(), false)
	if err != nil {
		return fmt.Errorf("fast: %w", err)
	}
	ref, err := runPropScript(src(), true)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return comparePropResults(fast, ref)
}

func idOf(ths []*Thread, t *Thread) int {
	for i := range ths {
		if ths[i] == t {
			return i
		}
	}
	panic("unknown thread")
}

func propClose(a, b float64) bool {
	return math.Abs(a-b) <= timeEps*(1+1e-9*math.Max(math.Abs(a), math.Abs(b)))
}

func TestPropertyFastMatchesReference(t *testing.T) {
	const cases = 1200
	for seed := uint64(0); seed < cases; seed++ {
		if err := runPropPair(func() drawSource { return NewRNG(seed) }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// fuzzDraws decodes fuzz bytes into script draws, two bytes per draw, and
// yields zeros once the input is exhausted, so every input is a complete
// (if eventually degenerate) schedule.
type fuzzDraws struct{ b []byte }

func (d *fuzzDraws) Uint64() uint64 {
	var v uint64
	for k := 0; k < 2 && len(d.b) > 0; k++ {
		v = v<<8 | uint64(d.b[0])
		d.b = d.b[1:]
	}
	return v
}

// FuzzEngineVsReference decodes the input into the property test's
// schedule and demands the same traces from the fast stepper as from
// NewReferenceEngine, with no stale queue entries after any step. The seed
// corpus in testdata/fuzz runs with every `go test`; `go test -fuzz
// FuzzEngineVsReference ./internal/sim` explores beyond it.
func FuzzEngineVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runPropPair(func() drawSource { return &fuzzDraws{b: data} }); err != nil {
			t.Fatal(err)
		}
	})
}
