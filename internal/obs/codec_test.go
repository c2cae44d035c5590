package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The codec's reference is encoding/json: a sink built on json.Encoder, and
// json.Unmarshal applied to each non-blank line.

// referenceStream records evs and closes a JSONL sink built on json.Encoder,
// returning the bytes and the sticky error Close reports.
func referenceStream(evs []Event) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var seen int64
	var err error
	record := func(e Event) {
		if err != nil {
			return
		}
		e.Seq = seen + 1
		if werr := enc.Encode(e); werr != nil {
			err = fmt.Errorf("obs: writing event: %w", werr)
			return
		}
		seen++
	}
	for _, e := range evs {
		record(e)
	}
	record(Event{Kind: KindRunEnd, Value: float64(seen)})
	return buf.Bytes(), err
}

// referenceDecode decodes data line by line with json.Unmarshal, skipping
// lines of JSON whitespace, and returns the events before the first bad
// line with that line's error.
func referenceDecode(data []byte) ([]Event, error) {
	var evs []Event
	for n, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.Trim(line, " \t\r")) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return evs, fmt.Errorf("obs: line %d: %w", n+1, err)
		}
		evs = append(evs, e)
	}
	return evs, nil
}

// sameEvent compares field by field, floats by bit pattern, so that -0 and
// +0 differ.
func sameEvent(a, b Event) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzJSONLDecode: on arbitrary input DecodeJSONL delivers exactly the
// events json.Unmarshal decodes line by line, and fails exactly where it
// fails, with the same line number and cause.
func FuzzJSONLDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := referenceDecode(data)
		var got []Event
		gerr := DecodeJSONL(bytes.NewReader(data), func(e Event) error {
			got = append(got, e)
			return nil
		})
		if errText(gerr) != errText(werr) {
			t.Fatalf("error %q, reference %q", errText(gerr), errText(werr))
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d events, reference %d", len(got), len(want))
		}
		for i := range want {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("event %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}

// fuzzEvent fills the fields selected by mask with the fuzz values: every
// int field takes i1 or i2, every string field s1 or s2, every float field
// f1, f2 or f3, in rotation, and Kind takes kind.
func fuzzEvent(kind uint8, i1, i2 int64, s1, s2 string, f1, f2, f3 float64, mask uint64) Event {
	var e Event
	v := reflect.ValueOf(&e).Elem()
	var ni, ns, nf int
	for i := 0; i < v.NumField(); i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Uint8:
			fv.SetUint(uint64(kind))
		case reflect.Int, reflect.Int64:
			fv.SetInt([]int64{i1, i2}[ni%2])
			ni++
		case reflect.String:
			fv.SetString([]string{s1, s2}[ns%2])
			ns++
		case reflect.Float64:
			fv.SetFloat([]float64{f1, f2, f3}[nf%3])
			nf++
		}
	}
	return e
}

// FuzzJSONLEncode: the sink writes the bytes json.Encoder writes for the
// same events, and a value encoding/json cannot encode (NaN, ±Inf) sticks
// as the same error, dropping every later event including run_end.
func FuzzJSONLEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, i1, i2 int64, s1, s2 string, f1, f2, f3 float64, mask uint64) {
		evs := []Event{
			fuzzEvent(kind, i1, i2, s1, s2, f1, f2, f3, mask),
			{Kind: KindFleetRequest, TNS: 7, Run: s2, DurNS: f3},
		}
		want, werr := referenceStream(evs)
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.RecordBatch(evs)
		gerr := j.Close()
		if errText(gerr) != errText(werr) {
			t.Fatalf("error %q, reference %q", errText(gerr), errText(werr))
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("stream differs from json.Encoder's:\n got %q\nwant %q", buf.Bytes(), want)
		}
	})
}

// TestEventFieldCoverage guards the codec against Event growing a field it
// does not know: each field set alone must encode as encoding/json encodes
// it, be accepted by the fast parser, and round-trip exactly.
func TestEventFieldCoverage(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		var e Event
		fv := reflect.ValueOf(&e).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Uint8:
			fv.SetUint(uint64(KindFleetWindow))
		case reflect.Int, reflect.Int64:
			fv.SetInt(-1234567890123)
		case reflect.String:
			fv.SetString("gc-aware")
		case reflect.Float64:
			fv.SetFloat(0.125)
		default:
			t.Fatalf("Event.%s has type %s, which the codec does not handle", typ.Field(i).Name, fv.Type())
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(e); err != nil {
			t.Fatal(err)
		}
		got, err := appendEvent(nil, &e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("Event.%s: encoded %q, encoding/json %q", typ.Field(i).Name, got, want.Bytes())
		}
		d := lineDecoder{strs: map[string]string{}}
		var back Event
		if !d.parse(got, &back) {
			t.Fatalf("Event.%s: fast parser rejected %q", typ.Field(i).Name, got)
		}
		if back != e {
			t.Fatalf("Event.%s: round trip %+v, want %+v", typ.Field(i).Name, back, e)
		}
	}
}

// TestDecodeJSONLErrorLine is the regression test for error positions: a
// malformed line is reported by its line number in the input, blank lines
// included, not by the count of events before it.
func TestDecodeJSONLErrorLine(t *testing.T) {
	in := "\n\n" + `{"kind":"oom","t_ns":1}` + "\n  \t\n\n" + `{"kind":"oom","t_ns":` + "\n"
	var n int
	err := DecodeJSONL(strings.NewReader(in), func(Event) error { n++; return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "obs: line 6: ") {
		t.Fatalf("error %v, want one naming line 6", err)
	}
	if n != 1 {
		t.Fatalf("decoded %d events before the bad line, want 1", n)
	}
}

// TestDecodeJSONLLongLine: a line longer than the reader's buffer decodes
// whole, on either side of a short one.
func TestDecodeJSONLLongLine(t *testing.T) {
	long := Event{Kind: KindJobFinish, TNS: 3, Err: strings.Repeat("x", 200<<10)}
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.RecordBatch([]Event{long, {Kind: KindOOM, TNS: 4}, long})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := DecodeJSONL(&buf, func(e Event) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d events, want 3 + run_end", len(got))
	}
	first := long
	first.Seq = 1
	if got[0] != first || got[1].Kind != KindOOM || got[2].Err != long.Err {
		t.Fatal("a long line did not decode whole")
	}
}

// TestJSONLRecordAllocs: recording into a warmed-up sink allocates nothing;
// the encoded line reuses the sink's buffer.
func TestJSONLRecordAllocs(t *testing.T) {
	j := NewJSONL(io.Discard)
	e := Event{Kind: KindFleetRequest, TNS: 123456789, Run: "k", Benchmark: "micro-pauseprobe",
		Collector: "G1", DurNS: 4.5e6, Value: 17, Aux: 1e-9, Replica: 2, QueueNS: 10, GCPauses: 1}
	j.Record(e)
	if allocs := testing.AllocsPerRun(1000, func() { j.Record(e) }); allocs != 0 {
		t.Fatalf("Record allocated %v times per event", allocs)
	}
}
