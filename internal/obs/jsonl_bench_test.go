package obs_test

import (
	"bytes"
	"io"
	"testing"

	"chopin/internal/fleet"
	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/workload"
)

// fleetStream records one fixed fleet run — two G1 replicas of
// micro-pauseprobe behind the gc-aware balancer, Poisson arrivals, one
// client retry — and returns its events and its JSONL encoding.
func fleetStream(b *testing.B) ([]obs.Event, []byte) {
	d := workload.MicroPauseProbe
	cfg := fleet.Config{
		Replicas: 2, Policy: fleet.GCAware,
		Arrival:  fleet.ArrivalSpec{Kind: fleet.ArrivalPoisson},
		Requests: 400, RetryAfterNS: 50e6, MaxRetries: 1,
		Run: workload.RunConfig{
			HeapMB: 2 * d.MinHeapMB, Collector: gc.G1, Iterations: 1,
			Events: 100, OpenLoopHeadroom: 4, Seed: 11,
		},
	}
	var events obs.Buffer
	if _, err := fleet.Run(d, cfg, &events); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	sink.RecordBatch(events.Events())
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	return events.Events(), buf.Bytes()
}

// BenchmarkJSONL prices the telemetry codec on a fleet stream: record
// encodes every event into a long-lived sink (steady state, gated at 0
// allocs/op), decode reads the whole stream back.
func BenchmarkJSONL(b *testing.B) {
	events, stream := fleetStream(b)
	b.Run("record", func(b *testing.B) {
		sink := obs.NewJSONL(io.Discard)
		sink.RecordBatch(events)
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.RecordBatch(events)
		}
		b.StopTimer()
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := obs.DecodeJSONL(bytes.NewReader(stream), func(obs.Event) error {
				n++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if n != len(events)+1 {
				b.Fatalf("decoded %d events, want %d", n, len(events)+1)
			}
		}
	})
}
