package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers names the layers a CPU ledger reports, in report order. Samples
// charged to the benchmark's own code ("bench") or to a package outside
// this map ("other") count in the total but are not reported as a layer.
var layers = []string{"sim", "gc", "heap", "workload", "obs", "exper", "persist", "harness", "fleet", "runtime"}

// packageLayer maps a chopin/internal package to its layer. The GC log
// belongs to the collector; the JIT, CPU and bytecode models are parts of
// an invocation; the statistics an experiment merges with belong to the
// harness.
var packageLayer = map[string]string{
	"sim": "sim", "gc": "gc", "trace": "gc", "heap": "heap",
	"workload": "workload", "jit": "workload", "cpuarch": "workload", "bytecode": "workload",
	"obs": "obs", "exper": "exper", "persist": "persist",
	"harness": "harness", "lbo": "harness", "latency": "harness", "stats": "harness",
	"fleet": "fleet",
}

// frameLayer returns the layer of one stack frame's function name, or ""
// for a frame outside the repository's code (the Go runtime and standard
// library), which is charged to its nearest repository caller.
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "chopin/internal/"):
		pkg := strings.TrimPrefix(fn, "chopin/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "chopin/perfbench"):
		return "bench"
	case strings.HasPrefix(fn, "chopin/"), strings.HasPrefix(fn, "chopin."):
		return "other"
	}
	return ""
}

// ledger is CPU time by layer from one CPU profile.
type ledger struct {
	total   time.Duration
	byLayer map[string]time.Duration
}

// share returns the layer's fraction of all profiled CPU time.
func (l ledger) share(layer string) float64 {
	if l.total <= 0 {
		return 0
	}
	return float64(l.byLayer[layer]) / float64(l.total)
}

// parseTraces builds a ledger from `go tool pprof -traces` text. Each
// sample block starts with its value and leaf frame, followed by one caller
// frame per line, and blocks are separated by dashed rules. A sample goes
// to the layer of its leaf frame; a leaf outside the repository's code goes
// to its nearest repository caller, and to "runtime" when the whole stack
// is outside (GC workers, the scheduler).
func parseTraces(r io.Reader) (ledger, error) {
	l := ledger{byLayer: map[string]time.Duration{}}
	var (
		val     time.Duration
		layer   string
		inBlock bool // past the first rule: the header is over
		open    bool // the current block's sample line has been read
	)
	flush := func() {
		if open {
			if layer == "" {
				layer = "runtime"
			}
			l.byLayer[layer] += val
			l.total += val
		}
		open, layer = false, ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBlock = true
		case !inBlock || line == "":
		case !open:
			v, fn, _ := strings.Cut(line, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return ledger{}, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			val, open = d, true
			layer = frameLayer(strings.TrimSpace(fn))
		case layer == "":
			layer = frameLayer(line)
		}
	}
	if err := sc.Err(); err != nil {
		return ledger{}, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	if l.total == 0 {
		return ledger{}, fmt.Errorf("pprof traces: no samples")
	}
	return l, nil
}

// profileLedger runs `go tool pprof -traces` on a CPU profile and parses
// its output.
func profileLedger(profile string) (ledger, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return ledger{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTraces(&out)
}
