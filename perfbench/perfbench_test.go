package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// setupDigest runs one set-up of the workload and returns its digest.
func setupDigest(t *testing.T, df def, seed uint64) string {
	t.Helper()
	b, err := df.make(seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	var log bytes.Buffer
	d := &runner{def: df, b: b, out: &log}
	if _, err := d.setup(1); err != nil {
		t.Fatal(err)
	}
	if d.failed != 0 {
		t.Fatalf("%s: %d failed operations:\n%s", df.name, d.failed, log.String())
	}
	return d.digest
}

// TestDigestsRepeat: two short runs with the same seed produce the same
// output digest, on every workload.
func TestDigestsRepeat(t *testing.T) {
	for _, df := range defs {
		t.Run(df.name, func(t *testing.T) {
			a, b := setupDigest(t, df, 7), setupDigest(t, df, 7)
			if a != b {
				t.Fatalf("digests differ for one seed: %s vs %s", a, b)
			}
		})
	}
	if setupDigest(t, defs[0], 7) == setupDigest(t, defs[0], 8) {
		t.Fatal("digest does not depend on the seed")
	}
}

// runJSON runs the benchmark with args and decodes its last output line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-work", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("result %+v", r)
	}
	return r
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]value) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRunPrintsEveryMetric: the untraced run prints exactly the end-to-end
// metrics and the traced run exactly the per-layer ones.
func TestRunPrintsEveryMetric(t *testing.T) {
	r := runJSON(t, "-workload", "invoke", "-seed", "3", "-seconds", "0.01")
	if got, want := keys(r.Metrics), names(endToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("untraced metrics %v, want %v", got, want)
	}
	for name, v := range r.Metrics {
		if !(v.Value > 0) {
			t.Errorf("%s = %v, want > 0", name, v.Value)
		}
	}
	r = runJSON(t, "-workload", "invoke", "-seed", "3", "-seconds", "0.01", "-trace", "1")
	if got, want := keys(r.Metrics), names(perLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("traced metrics %v, want %v", got, want)
	}
	// The ledger parsed real pprof output: the simulator has a share, and
	// the shares do not add up to more than the whole. (How large a share is
	// depends on the build: under -race most samples land in the detector.)
	var sum float64
	for _, l := range layers {
		sum += r.Metrics[l+".cpu_share"].Value
	}
	if sim := r.Metrics["sim.cpu_share"].Value; !(sim > 0) || sum > 1+1e-9 {
		t.Errorf("sim.cpu_share = %v, layer shares sum to %v", sim, sum)
	}
}

// TestCatalogueMatchesBenchmarkJSON: BENCHMARK.json declares the workloads
// and metrics this program runs and prints.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(defs))
	}
	for i, w := range spec.Workloads {
		if w.Name != defs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, defs[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in the program",
					i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
