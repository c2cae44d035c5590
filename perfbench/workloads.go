package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"chopin/internal/exper"
	"chopin/internal/fleet"
	"chopin/internal/gc"
	"chopin/internal/harness"
	"chopin/internal/lbo"
	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/workload"
)

// bench is one workload's state for a run. The runner executes operations by
// index; operation i is the workload's one configuration under opSeed(seed,
// i), so for a given run seed the sequence of operations repeats exactly.
type bench interface {
	// prepare does the set-up work that comes before the warm-up
	// operations; the runner may call it several times, each a fresh set-up.
	prepare() error
	// op runs operation i and returns a check of its outputs, which the
	// runner calls outside the operation's timing. keep asks the check to
	// return the canonical encoding of the virtual-time outputs.
	op(i int, tr *tracer) (check func(keep bool) (output, error), err error)
	// finish samples per-layer metrics that need extra work after the traced
	// phase, which ran operations first to first+n-1.
	finish(tr *tracer, first, n int) error
	close() error
}

// output is what an operation's check returns: the encoding of its
// virtual-time outputs (when asked) and, on invoke, the simulated GC counts
// the traced run reports.
type output struct {
	virt               []byte
	gcCycles, gcPauses float64
}

// def describes a workload: how many operations make one timed round, and
// how many warm-up operations each set-up runs. README.md says why each
// workload is in the benchmark.
type def struct {
	name   string
	round  int
	warmup int
	make   func(seed uint64, work string) (bench, error)
}

var defs = []def{
	{"invoke", 3, 2, func(seed uint64, _ string) (bench, error) { return &invokeBench{seed: seed}, nil }},
	{"suite", 3, 2, func(seed uint64, _ string) (bench, error) { return &suiteBench{seed: seed}, nil }},
	{"fleet", 3, 2, func(seed uint64, _ string) (bench, error) { return &fleetBench{seed: seed}, nil }},
	{"resume", 4, 1, func(seed uint64, work string) (bench, error) {
		return &resumeBench{seed: seed, dir: filepath.Join(work, "cache")}, nil
	}},
}

func defByName(name string) (def, error) {
	for _, d := range defs {
		if d.name == name {
			return d, nil
		}
	}
	return def{}, fmt.Errorf("unknown workload %q", name)
}

// --- invoke -------------------------------------------------------------

const (
	invokeRuns   = 8 // invocations per operation
	invokeEvents = 1000
	invokeIters  = 2
)

// invokeBench runs spring under G1 at twice its minimum heap, directly
// through workload.Run on one goroutine. An operation is invokeRuns
// invocations under consecutive seeds, about 200 ms: a single 25 ms
// invocation is short enough that one hypervisor steal burst on a shared
// host (10–60 ms) doubles it, and the tail then measures the host.
type invokeBench struct{ seed uint64 }

func (b *invokeBench) prepare() error                 { return nil }
func (b *invokeBench) finish(*tracer, int, int) error { return nil }
func (b *invokeBench) close() error                   { return nil }

func (b *invokeBench) op(i int, tr *tracer) (func(bool) (output, error), error) {
	d := workload.Spring
	var results []*workload.Result
	for r := 0; r < invokeRuns; r++ {
		cfg := workload.RunConfig{
			HeapMB: 2 * d.MinHeapMB, Collector: gc.G1,
			Iterations: invokeIters, Events: invokeEvents, Seed: opSeed(b.seed, i*invokeRuns+r),
		}
		sp := tr.begin("workload.Run")
		res, err := workload.Run(d, cfg)
		ms := tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("workload.Run: %w", err)
		}
		tr.sample("workload.run_ms", ms)
		tr.sample("workload.host_us_per_request", ms*1e3/(invokeEvents*invokeIters))
		results = append(results, res)
	}
	return func(keep bool) (output, error) {
		var out output
		var e enc
		for _, res := range results {
			if err := checkInvocation(res); err != nil {
				return output{}, err
			}
			out.gcCycles += float64(len(res.Log.Events))
			out.gcPauses += float64(len(res.Log.Pauses))
			if keep {
				encodeResult(&e, res)
			}
		}
		out.virt = e.b
		return out, nil
	}, nil
}

func checkInvocation(res *workload.Result) error {
	if len(res.Iterations) != invokeIters {
		return fmt.Errorf("invoke: %d iterations, want %d", len(res.Iterations), invokeIters)
	}
	// Spring is latency-sensitive, so the timed iteration records one event
	// per request it served.
	if len(res.Events) != invokeEvents {
		return fmt.Errorf("invoke: timed iteration served %d requests, want %d", len(res.Events), invokeEvents)
	}
	for _, it := range res.Iterations {
		if !(it.WallNS > 0 && it.CPUNS > 0) {
			return fmt.Errorf("invoke: iteration with wall %v, cpu %v", it.WallNS, it.CPUNS)
		}
	}
	return nil
}

func encodeResult(e *enc, r *workload.Result) {
	e.s(r.Workload)
	for _, it := range r.Iterations {
		e.f(it.WallNS)
		e.f(it.CPUNS)
		e.f(it.KernelNS)
		e.f(it.Allocated)
		e.i(int64(it.StartNS))
		e.i(int64(it.EndNS))
	}
	e.f(r.GCCPUNS)
	e.f(r.MutatorCPUNS)
	for _, g := range r.Log.Events {
		e.i(int64(g.Kind))
		e.i(g.Start)
		e.i(g.End)
		e.f(g.PauseNS)
		e.f(g.CPUNS)
		e.f(g.Reclaimed)
		e.f(g.Copied)
		e.f(g.UsedAfter)
		e.f(g.LiveAfter)
	}
	for _, p := range r.Log.Pauses {
		e.i(p.Start)
		e.i(p.End)
	}
	e.f(r.Log.StallNS)
	for _, ev := range r.Events {
		e.i(int64(ev.Start))
		e.i(int64(ev.End))
	}
}

// --- suite --------------------------------------------------------------

// planShape is the cassandra plan a suite operation submits: a min-heap
// search, an LBO grid of planCollectors × planFactors × 2 invocations, and
// one latency cell.
var (
	planCollectors = []gc.Kind{gc.Serial, gc.G1, gc.Shenandoah}
	planFactors    = []float64{1.5, 2, 3}
)

// plan is one plan's merged output.
type plan struct {
	grid  *lbo.Grid
	minMB float64
	lat   []harness.LatencyResult
	stats exper.Stats
}

// planEngine configures the engine a plan runs on.
type planEngine struct {
	cache *exper.Cache
	plain bool // ladder width 1 and no speculation
}

// runPlan submits one cassandra plan to a fresh engine with one worker per
// CPU and waits for it. With tr set it also samples the engine's job timings.
func runPlan(seed uint64, pe planEngine, tr *tracer) (*plan, error) {
	var watch *jobWatch
	opt := exper.Options{Workers: nproc(), Cache: pe.cache}
	if pe.plain {
		opt.LadderWidth, opt.Speculate = 1, exper.SpecOff
	}
	if tr != nil {
		watch = newJobWatch()
		opt.Observer = watch.observe
	}
	start := time.Now()
	eng := exper.New(opt)
	d := workload.Cassandra
	hopt := harness.Options{
		Collectors: planCollectors, HeapFactors: planFactors,
		Invocations: 2, Iterations: 2, Events: 300, Seed: seed, Engine: eng,
	}
	sp := tr.begin("harness.SubmitLBOGrid")
	pg := harness.SubmitLBOGrid(d, hopt)
	tr.end(sp)
	lopt := hopt
	lopt.Collectors = []gc.Kind{gc.G1}
	sp = tr.begin("harness.SubmitLatency")
	pl := harness.SubmitLatency(d, []float64{2}, lopt)
	tr.end(sp)

	sp = tr.begin("harness.Wait")
	grid, minMB, gerr := pg.Wait()
	lat, lerr := pl.Wait()
	tr.end(sp)
	waited := time.Now()
	cerr := eng.Close()
	if gerr != nil || lerr != nil || cerr != nil {
		return nil, fmt.Errorf("plan: grid: %v, latency: %v, close: %v", gerr, lerr, cerr)
	}
	p := &plan{grid: grid, minMB: minMB, lat: lat, stats: eng.Stats()}
	if tr != nil {
		watch.report(tr, waited, time.Since(start), opt.Workers)
		st := p.stats
		tr.sample("exper.jobs_executed", float64(st.Executed))
		tr.sample("exper.jobs_deduped", float64(st.Deduped+st.MemoHits))
		tr.sample("exper.ooms", float64(st.OOMs))
		tr.sample("exper.failures", float64(st.Failures))
		tr.sample("exper.cache_hits", float64(st.CacheHits))
	}
	return p, nil
}

// check verifies the plan's invariants: no failed job, a complete grid in
// enumeration order and one completed latency cell.
func (p *plan) check() error {
	if p.stats.Failures != 0 {
		return fmt.Errorf("plan: %d failed jobs", p.stats.Failures)
	}
	if want := len(planCollectors) * len(planFactors); len(p.grid.Cells) != want {
		return fmt.Errorf("plan: grid has %d cells, want %d", len(p.grid.Cells), want)
	}
	for i, c := range p.grid.Cells {
		k, f := planCollectors[i/len(planFactors)], planFactors[i%len(planFactors)]
		if c.Collector != k.String() || c.HeapFactor != f {
			return fmt.Errorf("plan: grid cell %d is %s@%v, want %s@%v", i, c.Collector, c.HeapFactor, k, f)
		}
		if c.Completed && len(c.WallSamples) != 2 {
			return fmt.Errorf("plan: cell %s@%v has %d samples, want 2", c.Collector, c.HeapFactor, len(c.WallSamples))
		}
	}
	if len(p.lat) != 1 || !p.lat[0].Completed {
		return fmt.Errorf("plan: latency cell missing or incomplete")
	}
	return nil
}

// encode is the plan's canonical output encoding.
func (p *plan) encode() []byte {
	var e enc
	e.f(p.minMB)
	e.s(p.grid.Benchmark)
	for _, c := range p.grid.Cells {
		e.s(c.Collector)
		e.f(c.HeapFactor)
		e.f(c.HeapMB)
		if !c.Completed {
			e.u(0)
			continue
		}
		e.u(1)
		for _, v := range []float64{c.WallNS, c.CPUNS, c.STWWallNS, c.GCCPUNS} {
			e.f(v)
		}
		for i := range c.WallSamples {
			e.f(c.WallSamples[i])
			e.f(c.CPUSamples[i])
		}
	}
	for _, r := range p.lat {
		e.s(r.Collector)
		e.f(r.HeapFactor)
		e.f(r.HeapMB)
		e.i(r.RunStart)
		e.i(r.RunEnd)
		for _, ev := range r.Events {
			e.i(ev.Start)
			e.i(ev.End)
		}
		for _, pz := range r.Pauses {
			e.i(pz.Start)
			e.i(pz.End)
		}
		for _, q := range []float64{50, 99, 99.9} {
			e.f(r.Simple.Percentile(q))
			e.f(r.Metered100.Percentile(q))
			e.f(r.MeteredFull.Percentile(q))
		}
	}
	return e.b
}

// suiteBench runs one plan per operation on a fresh engine without a cache,
// as the commands do by default.
type suiteBench struct{ seed uint64 }

func (b *suiteBench) prepare() error { return nil }
func (b *suiteBench) close() error   { return nil }

func (b *suiteBench) op(i int, tr *tracer) (func(bool) (output, error), error) {
	p, err := runPlan(opSeed(b.seed, i), planEngine{}, tr)
	if err != nil {
		return nil, err
	}
	return func(keep bool) (output, error) {
		if err := p.check(); err != nil {
			return output{}, err
		}
		if keep {
			return output{virt: p.encode()}, nil
		}
		return output{}, nil
	}, nil
}

// finish measures the useful ratio: the jobs the first traced plans execute
// with ladder width 1 and no speculation, against the jobs they executed in
// the traced phase.
func (b *suiteBench) finish(tr *tracer, first, traced int) error {
	const plans = 3
	executed := tr.samples["exper.jobs_executed"]
	n := min(plans, traced, len(executed))
	var plain, spec float64
	for k := 0; k < n; k++ {
		p, err := runPlan(opSeed(b.seed, first+k), planEngine{plain: true}, nil)
		if err != nil {
			return err
		}
		plain += float64(p.stats.Executed)
		spec += executed[k]
	}
	if spec > 0 {
		tr.sample("exper.useful_ratio", plain/spec)
	}
	return nil
}

// --- fleet --------------------------------------------------------------

// fleetBench runs one fleet of micro-pauseprobe replicas under G1 behind
// the gc-aware balancer, with Poisson arrivals and client retries, recording
// its telemetry as JSONL into memory; it then decodes the stream and builds
// the fleet trace and blame totals, as `fleet -telemetry` followed by
// `obsreport -fleet` does.
type fleetBench struct{ seed uint64 }

// The fleet runs at a quarter of its nominal arrival rate, so queues stay
// short. Clients retry once after 50 ms, a little above the median latency,
// so a few requests retry; with more retries per request a few seeds in a
// hundred set off retry storms that triple the operation's work.
const (
	fleetReplicas = 2
	fleetEvents   = 100 // per replica; sets each request's service time
	fleetRequests = 400
)

func (b *fleetBench) prepare() error                 { return nil }
func (b *fleetBench) finish(*tracer, int, int) error { return nil }
func (b *fleetBench) close() error                   { return nil }

func (b *fleetBench) op(i int, tr *tracer) (func(bool) (output, error), error) {
	d := workload.MicroPauseProbe
	cfg := fleet.Config{
		Replicas: fleetReplicas, Policy: fleet.GCAware,
		Arrival:  fleet.ArrivalSpec{Kind: fleet.ArrivalPoisson},
		Requests: fleetRequests, RetryAfterNS: 50e6, MaxRetries: 1,
		Run: workload.RunConfig{
			HeapMB: 2 * d.MinHeapMB, Collector: gc.G1, Iterations: 1,
			Events: fleetEvents, OpenLoopHeadroom: 4, Seed: opSeed(b.seed, i),
		},
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	var rec obs.Recorder = sink
	var timed *timedRecorder
	if tr != nil {
		timed = &timedRecorder{sink: sink}
		rec = timed
	}
	sp := tr.begin("fleet.Run")
	rep, err := fleet.Run(d, cfg, rec)
	runMS := tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("fleet.Run: %w", err)
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	recorded, size := sink.Events(), buf.Len()

	var events []obs.Event
	sp = tr.begin("obs.DecodeStream")
	info, err := obs.DecodeStream(bytes.NewReader(buf.Bytes()), func(e obs.Event) error {
		events = append(events, e)
		return nil
	})
	decodeMS := tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("obs.DecodeStream: %w", err)
	}
	sp = tr.begin("span.BuildFleet")
	fts := span.BuildFleet(events)
	var blame span.BlameTotals
	if len(fts) == 1 {
		blame = span.SumBlame(fts[0].Requests)
	}
	buildMS := tr.end(sp)

	if tr != nil {
		tr.sample("fleet.run_ms", runMS)
		tr.sample("fleet.completions", float64(rep.Completions))
		tr.sample("fleet.retries", float64(rep.Retries))
		tr.sample("obs.record_ms", float64(timed.ns.Load())/1e6)
		tr.sample("obs.events", float64(recorded))
		tr.sample("obs.bytes", float64(size))
		tr.sample("obs.decode_ms", decodeMS)
		tr.sample("obs.span_build_ms", buildMS)
	}
	return func(keep bool) (output, error) {
		if err := info.Err(); err != nil {
			return output{}, err
		}
		if len(fts) != 1 {
			return output{}, fmt.Errorf("fleet: stream holds %d fleet runs, want 1", len(fts))
		}
		if rep.Requests != fleetRequests || rep.Completions < int64(rep.Requests) {
			return output{}, fmt.Errorf("fleet: %d completions for %d requests", rep.Completions, rep.Requests)
		}
		if blame.Requests != int64(rep.Requests) {
			return output{}, fmt.Errorf("fleet: trace holds %d requests, want %d", blame.Requests, rep.Requests)
		}
		if sum := blame.QueueNS + blame.GCNS + blame.ServNS + blame.RetryNS; sum != blame.E2ENS {
			return output{}, fmt.Errorf("fleet: blame sums to %d ns, latency to %d ns", sum, blame.E2ENS)
		}
		if !keep {
			return output{}, nil
		}
		var e enc
		e.i(int64(rep.Requests))
		e.i(rep.Completions)
		e.i(rep.Retries)
		for _, v := range []float64{rep.WallNS, rep.MeanNS, rep.P50NS, rep.P99NS, rep.P999NS, rep.GCCPUNS, rep.TaskClockNS} {
			e.f(v)
		}
		for _, v := range []int64{blame.QueueNS, blame.GCNS, blame.ServNS, blame.RetryNS, blame.E2ENS} {
			e.i(v)
		}
		e.i(recorded)
		e.i(int64(size))
		return output{virt: e.b}, nil
	}, nil
}

// --- resume -------------------------------------------------------------

// resumePlans is how many plans a resume set-up writes cold into its cache.
const resumePlans = 3

// resumeBench writes resumePlans suite plans cold into a fresh cache
// directory during set-up. An operation opens the cache afresh and replays
// every plan warm, each on a fresh engine, as a resumed sweep does; one
// replay alone is about 45 ms, too short to keep the tail off the host's
// steal bursts.
type resumeBench struct {
	seed uint64
	dir  string
	cold [][]byte // each plan's output from the cold run
	size int64    // bytes the cold runs wrote
}

func (b *resumeBench) prepare() error {
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	cache, err := exper.OpenCache(b.dir, exper.ReadWrite)
	if err != nil {
		return err
	}
	b.cold = b.cold[:0]
	for k := 0; k < resumePlans; k++ {
		p, err := runPlan(opSeed(b.seed, k), planEngine{cache: cache}, nil)
		if err == nil {
			err = p.check()
		}
		if err != nil {
			cache.Close()
			return fmt.Errorf("resume: cold plan %d: %w", k, err)
		}
		b.cold = append(b.cold, p.encode())
	}
	if err := cache.Close(); err != nil {
		return err
	}
	b.size, err = dirSize(b.dir)
	return err
}

func (b *resumeBench) op(_ int, tr *tracer) (func(bool) (output, error), error) {
	cache, err := exper.OpenCache(b.dir, exper.ReadWrite)
	if err != nil {
		return nil, err
	}
	var plans []*plan
	for k := 0; k < resumePlans && err == nil; k++ {
		var p *plan
		if p, err = runPlan(opSeed(b.seed, k), planEngine{cache: cache}, tr); err == nil {
			plans = append(plans, p)
		}
	}
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return func(keep bool) (output, error) {
		var out output
		for k, p := range plans {
			if err := p.check(); err != nil {
				return output{}, err
			}
			if p.stats.Executed != 0 {
				return output{}, fmt.Errorf("resume: warm replay of plan %d executed %d jobs, want 0", k, p.stats.Executed)
			}
			warm := p.encode()
			if !bytes.Equal(warm, b.cold[k]) {
				return output{}, fmt.Errorf("resume: warm replay of plan %d differs from its cold run", k)
			}
			if keep {
				out.virt = append(out.virt, warm...)
			}
		}
		return out, nil
	}, nil
}

func (b *resumeBench) finish(tr *tracer, _, _ int) error {
	tr.sample("persist.bytes_per_plan", float64(b.size)/resumePlans)
	return nil
}

func (b *resumeBench) close() error { return os.RemoveAll(b.dir) }

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
