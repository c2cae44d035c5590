package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim":      40 * time.Millisecond, // leaf in sim
		"obs":      30 * time.Millisecond, // runtime and encoding/json folded into obs; obs/span is obs
		"persist":  10 * time.Millisecond, // standard-library leaf under persist
		"runtime":  10 * time.Millisecond, // a GC worker: no repository frame at all
		"bench":    5 * time.Millisecond,  // the benchmark's own code
		"workload": 5 * time.Millisecond,  // the JIT model counts as the invocation
	}
	if l.total != 100*time.Millisecond {
		t.Errorf("total = %v, want 100ms", l.total)
	}
	for layer, d := range want {
		if l.byLayer[layer] != d {
			t.Errorf("%s = %v, want %v", layer, l.byLayer[layer], d)
		}
	}
	if len(l.byLayer) != len(want) {
		t.Errorf("layers = %v, want exactly %v", l.byLayer, want)
	}
	if got := l.share("sim"); got != 0.4 {
		t.Errorf("sim share = %v, want 0.4", got)
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"File: x\n-----------+----\n     abc   main.main\n",
	} {
		if _, err := parseTraces(strings.NewReader(in)); err == nil {
			t.Errorf("parseTraces(%q) succeeded", in)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"chopin/internal/exper.(*Engine).Submit": "exper",
		"chopin/internal/obs/sample.(*S).Tick":   "obs",
		"chopin/internal/figures.Render":         "other",
		"chopin.Run":                             "other",
		"main.run":                               "bench",
		"runtime.mallocgc":                       "",
		"sync.(*Mutex).Lock":                     "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
