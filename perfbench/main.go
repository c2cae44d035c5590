// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a single process — a set-up phase with warm-up
// operations, then a timed phase of closed-loop operations — checks every
// operation's outputs, and prints the end-to-end metrics. With -trace 1 it
// instead prints the per-layer metrics of a traced run. The last line of
// standard output is always the result as one JSON object.
//
// Run it through run.sh from the root of the repository, which builds it:
//
//	bash perfbench/run.sh --workload invoke --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run; perLayer those of a traced
// run. BENCHMARK.json lists the same names and units.
var (
	endToEnd = []metric{
		{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"},
		{"peak_rss_mb", "MB"}, {"op_p50_ms", "ms"}, {"op_tail_ms", "ms"},
	}
	perLayer = []metric{
		{"workload.run_ms", "ms"}, {"workload.host_us_per_request", "us"},
		{"sim.cpu_share", "frac"}, {"gc.cpu_share", "frac"}, {"heap.cpu_share", "frac"}, {"workload.cpu_share", "frac"},
		{"gc.cycles", "count"}, {"gc.pauses", "count"},
		{"runtime.alloc_mb_per_op", "MB"}, {"runtime.gc_cpu_frac", "frac"}, {"runtime.cpu_share", "frac"},
		{"exper.jobs_executed", "count"}, {"exper.jobs_executed_min", "count"}, {"exper.jobs_executed_max", "count"},
		{"exper.jobs_deduped", "count"}, {"exper.useful_ratio", "frac"},
		{"exper.queue_wait_ms", "ms"}, {"exper.job_run_ms", "ms"}, {"exper.worker_busy_frac", "frac"}, {"exper.cpu_share", "frac"},
		{"harness.minheap_ms", "ms"}, {"harness.collect_ms", "ms"}, {"harness.cpu_share", "frac"},
		{"exper.ooms", "count"}, {"exper.failures", "count"},
		{"fleet.run_ms", "ms"}, {"fleet.completions", "count"}, {"fleet.retries", "count"}, {"fleet.cpu_share", "frac"},
		{"obs.record_ms", "ms"}, {"obs.events", "count"}, {"obs.bytes", "bytes"}, {"obs.cpu_share", "frac"},
		{"obs.decode_ms", "ms"}, {"obs.span_build_ms", "ms"},
		{"exper.cache_hits", "count"}, {"persist.bytes_per_plan", "bytes"}, {"persist.cpu_share", "frac"},
		{"trace.overhead_frac", "frac"},
	}
)

const (
	setupReps = 3  // set-ups per untraced run; setup_s is their median
	minRounds = 3  // the timed phase runs at least this many rounds...
	minOps    = 20 // ...and at least this many operations
	maxErrors = 5  // operation errors printed in full
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: invoke, suite, fleet or resume")
	seed := fl.Uint64("seed", 1, "seed every operation's inputs derive from")
	seconds := fl.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fl.Int("trace", 0, "1 for the traced run, which prints per-layer metrics")
	work := fl.String("work", ".bench_build/work", "directory for caches, profiles and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	d, err := defByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(d, *seed, *seconds, *traced == 1, *work, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner runs one workload's operations and accounts for their outcomes.
type runner struct {
	def       def
	b         bench
	out       io.Writer
	attempted int
	failed    int
	digest    string
	setupOuts []output // outputs of the last set-up's warm-up operations
}

// runOp runs operation i and checks it, returning its wall time in
// milliseconds (the check excluded) and the check's output.
func (d *runner) runOp(i int, tr *tracer, keep bool) (float64, output) {
	tr.beginOp(i)
	t := time.Now()
	check, err := d.b.op(i, tr)
	ms := float64(time.Since(t)) / 1e6
	tr.endOp()
	d.attempted++
	var out output
	if err == nil {
		out, err = check(keep)
	}
	if err != nil {
		d.fail(fmt.Errorf("operation %d: %w", i, err))
	}
	return ms, out
}

func (d *runner) fail(err error) {
	d.failed++
	if d.failed <= maxErrors {
		fmt.Fprintln(d.out, "FAILED:", err)
	}
}

// setup runs reps fresh set-ups, each the workload's preparation plus its
// warm-up operations, and returns their durations in seconds. Every set-up
// runs the same operations, so their output digests must agree.
func (d *runner) setup(reps int) ([]float64, error) {
	var secs []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		if err := d.b.prepare(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		var virts [][]byte
		d.setupOuts = d.setupOuts[:0]
		for i := 0; i < d.def.warmup; i++ {
			_, out := d.runOp(i, nil, true)
			virts = append(virts, out.virt)
			d.setupOuts = append(d.setupOuts, out)
		}
		secs = append(secs, time.Since(t).Seconds())
		dg := digest(virts)
		if r > 0 && dg != d.digest {
			d.fail(fmt.Errorf("set-up %d: output digest %s differs from %s", r, dg, d.digest))
		}
		d.digest = dg
	}
	return secs, nil
}

// phase is one timed phase's samples.
type phase struct {
	opMS      []float64 // wall time of each operation
	roundWall []float64 // wall seconds of each round
	roundCPU  []float64 // process CPU seconds of each round
}

// timed runs rounds of operations from index first until seconds have
// passed (and at least minRounds rounds and minOps operations ran).
func (d *runner) timed(first int, seconds float64, tr *tracer) (phase, error) {
	var p phase
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := first; len(p.roundWall) < minRounds || len(p.opMS) < minOps || time.Now().Before(deadline); {
		c0, err := cpuSeconds()
		if err != nil {
			return p, err
		}
		t0 := time.Now()
		for j := 0; j < d.def.round; j++ {
			ms, _ := d.runOp(i, tr, false)
			p.opMS = append(p.opMS, ms)
			i++
		}
		wall := time.Since(t0).Seconds()
		c1, err := cpuSeconds()
		if err != nil {
			return p, err
		}
		p.roundWall = append(p.roundWall, wall)
		p.roundCPU = append(p.roundCPU, c1-c0)
	}
	return p, nil
}

// measure runs the workload and returns its result, printing the report
// lines that precede it.
func measure(df def, seed uint64, seconds float64, traced bool, work string, out io.Writer) (result, error) {
	fmt.Fprintf(out, "perfbench: workload %s, seed %d, %g s, trace %v\n", df.name, seed, seconds, traced)
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, GOARCH %s, %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version())
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(work, df.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	b, err := df.make(seed, tmp)
	if err != nil {
		return result{}, err
	}
	d := &runner{def: df, b: b, out: out}
	var m map[string]value
	if traced {
		m, err = d.traced(seconds, tmp, filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", df.name, seed)))
	} else {
		m, err = d.untraced(seconds)
	}
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "digest: %s\n", d.digest)
	fmt.Fprintf(out, "operations: %d attempted, %d failed (failed share %g)\n",
		d.attempted, d.failed, float64(d.failed)/float64(d.attempted))
	ms := endToEnd
	if traced {
		ms = perLayer
	}
	for _, mt := range ms {
		fmt.Fprintf(out, "  %-30s %16.6f %s\n", mt.name, m[mt.name].Value, mt.unit)
	}
	return result{Correct: d.failed == 0, Attempted: d.attempted, Failed: d.failed, Metrics: m}, nil
}

// untraced measures the end-to-end metrics.
func (d *runner) untraced(seconds float64) (map[string]value, error) {
	setup, err := d.setup(setupReps)
	if err != nil {
		return nil, err
	}
	st0, stErr := hostSteal()
	p, err := d.timed(d.def.warmup, seconds, nil)
	if err != nil {
		return nil, err
	}
	if st1, err := hostSteal(); err == nil && stErr == nil {
		fmt.Fprintf(d.out, "host: %.1f%% of CPU time stolen by the hypervisor during the timed phase\n",
			100*st1.since(st0))
	}
	tailMS, pct, err := tail(p.opMS)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(d.out, "timed: %d operations in %d rounds of %d; op_tail_ms is p%.2f of %d operations\n",
		len(p.opMS), len(p.roundWall), d.def.round, pct, len(p.opMS))
	vals := map[string]float64{
		"setup_s":     median(setup),
		"wall_s":      median(p.roundWall),
		"cpu_s":       median(p.roundCPU),
		"peak_rss_mb": rss,
		"op_p50_ms":   median(p.opMS),
		"op_tail_ms":  tailMS,
	}
	return withUnits(endToEnd, vals), nil
}

// traced runs one set-up, then an untraced and a traced phase of half the
// time each over the same operations, and derives the per-layer metrics
// from the traced phase's spans, samples and CPU profile.
func (d *runner) traced(seconds float64, tmp, spansPath string) (map[string]value, error) {
	if _, err := d.setup(1); err != nil {
		return nil, err
	}
	first := d.def.warmup
	plain, err := d.timed(first, seconds/2, nil)
	if err != nil {
		return nil, err
	}

	prof := filepath.Join(tmp, "cpu.prof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	tr := newTracer()
	rt0 := readRuntime()
	tp, err := d.timed(first, seconds/2, tr)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	led, err := profileLedger(prof)
	if err != nil {
		return nil, err
	}
	if err := d.b.finish(tr, first, len(tp.opMS)); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(spansPath); err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	for name, s := range tr.samples {
		vals[name] = median(s)
	}
	lo, hi := minMax(tr.samples["exper.jobs_executed"])
	vals["exper.jobs_executed_min"], vals["exper.jobs_executed_max"] = lo, hi
	var cycles, pauses []float64
	for _, o := range d.setupOuts {
		cycles, pauses = append(cycles, o.gcCycles), append(pauses, o.gcPauses)
	}
	vals["gc.cycles"], vals["gc.pauses"] = median(cycles), median(pauses)
	for _, l := range layers {
		vals[l+".cpu_share"] = led.share(l)
	}
	n := float64(len(tp.opMS))
	vals["runtime.alloc_mb_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / n / (1 << 20)
	if busy := (rt1.total - rt1.idle) - (rt0.total - rt0.idle); busy > 0 {
		vals["runtime.gc_cpu_frac"] = (rt1.gc - rt0.gc) / busy
	}
	vals["trace.overhead_frac"] = median(tp.opMS)/median(plain.opMS) - 1

	fmt.Fprintf(d.out, "traced: %d operations untraced, %d traced; CPU profile %v, of which bench %v, other %v\n",
		len(plain.opMS), len(tp.opMS), led.total, led.byLayer["bench"], led.byLayer["other"])
	if s := tr.samples["exper.jobs_executed"]; len(s) > 0 {
		fmt.Fprintf(d.out, "exper.jobs_executed over %d plans: min %g, median %g, max %g\n",
			len(s), lo, median(s), hi)
	}
	return withUnits(perLayer, vals), nil
}

func withUnits(ms []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(ms))
	for _, m := range ms {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

func nproc() int { return runtime.NumCPU() }

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// stealSample is a reading of the host's CPU accounting: time stolen by the
// hypervisor and total time, in clock ticks over all CPUs.
type stealSample struct{ steal, total float64 }

// hostSteal reads the aggregate cpu line of /proc/stat. Stolen time is what
// other guests of a shared machine take from this one; it shows up as wall
// time that no CPU accounting of the process sees.
func hostSteal() (stealSample, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealSample{}, fmt.Errorf("/proc/stat: unexpected cpu line %q", line)
	}
	var s stealSample
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return stealSample{}, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s, nil
}

// since returns the stolen share of CPU time between s0 and s.
func (s stealSample) since(s0 stealSample) float64 {
	if s.total <= s0.total {
		return 0
	}
	return (s.steal - s0.steal) / (s.total - s0.total)
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// accounting.
type runtimeSample struct {
	allocBytes      uint64
	gc, total, idle float64 // CPU seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	var alloc uint64
	if s[0].Value.Kind() == metrics.KindUint64 {
		alloc = s[0].Value.Uint64()
	}
	return runtimeSample{allocBytes: alloc, gc: f(1), total: f(2), idle: f(3)}
}
