package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"chopin/internal/exper"
	"chopin/internal/obs"
)

// tracer collects the traced run's spans and per-operation samples. A nil
// *tracer is the untraced run: every method returns at once, so the
// operations themselves have one code path.
type tracer struct {
	t0      time.Time
	op      int
	spans   []callSpan
	samples map[string][]float64
}

// callSpan is one timed call into a layer, in nanoseconds since the trace began.
// Parent is the index of the enclosing span, or -1 for an operation's root.
type callSpan struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// beginOp opens operation i's root span; spans begun until endOp nest in it.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = i
	t.spans = append(t.spans, callSpan{Op: i, Name: "op", Parent: -1, Start: t.now()})
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.spans[t.root()].End = t.now()
}

// root returns the index of the current operation's root span.
func (t *tracer) root() int {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Parent < 0 {
			return i
		}
	}
	return -1
}

// begin opens a span around one call and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, callSpan{Op: t.op, Name: name, Parent: t.root(), Start: t.now()})
	return len(t.spans) - 1
}

// end closes the span and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = t.now()
	return float64(s.End-s.Start) / 1e6
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// sample records one per-operation value of a per-layer metric.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.samples[name] = append(t.samples[name], v)
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// timedRecorder forwards to a JSONL sink and adds up the time spent inside
// its Record and RecordBatch calls. It forwards the batch path too, so a
// producer that batches takes the same path as it would on the bare sink.
type timedRecorder struct {
	sink *obs.JSONL
	ns   atomic.Int64
}

var _ obs.BatchRecorder = (*timedRecorder)(nil)

func (r *timedRecorder) Enabled() bool { return r.sink.Enabled() }

func (r *timedRecorder) Record(e obs.Event) {
	t := time.Now()
	r.sink.Record(e)
	r.ns.Add(int64(time.Since(t)))
}

func (r *timedRecorder) RecordBatch(evs []obs.Event) {
	t := time.Now()
	r.sink.RecordBatch(evs)
	r.ns.Add(int64(time.Since(t)))
}

// jobWatch timestamps an engine's progress events as they arrive, for one
// plan. The engine calls observe from its pool workers concurrently.
type jobWatch struct {
	mu        sync.Mutex
	submitted time.Time
	queued    map[exper.Key]time.Time
	started   map[exper.Key]time.Time
	waitNS    []int64 // queued → started (or → cache hit), per job
	runNS     []int64 // started → finished or failed, per executed job
	mhStart   time.Time
	mhEnd     time.Time
	ends      []time.Time // when each job finished, failed or hit the cache
}

func newJobWatch() *jobWatch {
	now := time.Now()
	return &jobWatch{
		submitted: now,
		queued:    map[exper.Key]time.Time{},
		started:   map[exper.Key]time.Time{},
	}
}

func (w *jobWatch) observe(ev exper.Event) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case exper.JobQueued:
		w.queued[ev.Key] = now
	case exper.JobStarted, exper.JobCacheHit:
		if q, ok := w.queued[ev.Key]; ok {
			w.waitNS = append(w.waitNS, int64(now.Sub(q)))
			delete(w.queued, ev.Key)
		}
		if ev.Kind == exper.JobStarted {
			w.started[ev.Key] = now
		} else {
			w.ends = append(w.ends, now)
		}
	case exper.JobFinished, exper.JobFailed:
		if s, ok := w.started[ev.Key]; ok {
			w.runNS = append(w.runNS, int64(now.Sub(s)))
			delete(w.started, ev.Key)
		}
		w.ends = append(w.ends, now)
	case exper.MinHeapStarted:
		if w.mhStart.IsZero() {
			w.mhStart = now
		}
	case exper.MinHeapFinished, exper.MinHeapCacheHit:
		w.mhEnd = now
	}
}

// report samples the plan's engine and harness metrics into t. waited is
// when the plan's last Wait returned; wall is the plan's wall time.
func (w *jobWatch) report(t *tracer, waited time.Time, wall time.Duration, workers int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	meanMS := func(ns []int64) float64 {
		if len(ns) == 0 {
			return 0
		}
		var sum int64
		for _, v := range ns {
			sum += v
		}
		return float64(sum) / float64(len(ns)) / 1e6
	}
	var busy int64
	for _, v := range w.runNS {
		busy += v
	}
	t.sample("exper.queue_wait_ms", meanMS(w.waitNS))
	t.sample("exper.job_run_ms", meanMS(w.runNS))
	t.sample("exper.worker_busy_frac", float64(busy)/(float64(workers)*float64(wall)))
	start := w.mhStart
	if start.IsZero() {
		start = w.submitted // a cached bound fires no start event
	}
	if !w.mhEnd.IsZero() {
		t.sample("harness.minheap_ms", float64(w.mhEnd.Sub(start))/1e6)
	}
	// Speculative jobs may still finish after the plan is merged; the plan's
	// last job event is the last one before its Wait returned.
	var last time.Time
	for _, e := range w.ends {
		if !e.After(waited) && e.After(last) {
			last = e
		}
	}
	if !last.IsZero() {
		t.sample("harness.collect_ms", float64(waited.Sub(last))/1e6)
	}
}
