package obs

import (
	"encoding/json"
	"math"
	"strconv"
)

// The JSONL codec. Event is flat, so its stream format is written and read
// by hand instead of through encoding/json's reflection, which dominated
// the cost of recording and decoding a stream. The bytes are exactly what
// json.Encoder writes for an Event (field order, omitempty, HTML-safe
// string escaping, float formatting), and decoding agrees with
// json.Unmarshal on every line: lines outside the canonical form the sink
// writes go to json.Unmarshal itself. The differential fuzz targets in
// codec_test.go hold both directions to encoding/json.

// appendEvent appends e's JSON line — the object and its newline, exactly
// as json.Encoder.Encode writes it — to dst. A NaN or infinite float field
// is an error, as it is for encoding/json; dst is then returned unchanged.
func appendEvent(dst []byte, e *Event) ([]byte, error) {
	w := eventWriter{b: dst}
	w.b = append(w.b, `{"kind":`...)
	w.b = appendString(w.b, e.Kind.String())
	w.int(`,"seq":`, e.Seq)
	w.b = append(w.b, `,"t_ns":`...)
	w.b = strconv.AppendInt(w.b, e.TNS, 10)
	w.str(`,"run":`, e.Run)
	w.str(`,"benchmark":`, e.Benchmark)
	w.str(`,"collector":`, e.Collector)
	w.str(`,"phase":`, e.Phase)
	w.float(`,"dur_ns":`, e.DurNS)
	w.float(`,"cpu_ns":`, e.CPUNS)
	w.float(`,"value":`, e.Value)
	w.float(`,"aux":`, e.Aux)
	w.int(`,"cycle":`, e.Cycle)
	w.int(`,"cause":`, e.Cause)
	w.float(`,"heap_used":`, e.HeapUsed)
	w.float(`,"live_est":`, e.LiveEst)
	w.float(`,"mut_frac":`, e.MutFrac)
	w.float(`,"gc_frac":`, e.GCFrac)
	w.float(`,"stall_frac":`, e.StallFrac)
	w.float(`,"busy_ns":`, e.BusyNS)
	w.float(`,"steal_ns":`, e.StealNS)
	w.float(`,"park_ns":`, e.ParkNS)
	w.float(`,"anchor_tasks":`, e.AnchorTasks)
	w.float(`,"grid_tasks":`, e.GridTasks)
	w.float(`,"steals":`, e.Steals)
	w.float(`,"queue_max":`, e.QueueMax)
	w.int(`,"replica":`, int64(e.Replica))
	w.int(`,"queue_ns":`, e.QueueNS)
	w.int(`,"gc_ns":`, e.GCNS)
	w.int(`,"service_ns":`, e.ServiceNS)
	w.int(`,"retry_ns":`, e.RetryNS)
	w.int(`,"gc_pauses":`, e.GCPauses)
	w.int(`,"in_flight":`, e.InFlight)
	w.float(`,"goodput":`, e.Goodput)
	w.float(`,"burn_rate":`, e.BurnRate)
	w.str(`,"err":`, e.Err)
	if w.err != nil {
		return dst, w.err
	}
	return append(w.b, '}', '\n'), nil
}

// eventWriter appends omitempty fields; err keeps the first unencodable
// value, as encoding/json reports the first one in field order.
type eventWriter struct {
	b   []byte
	err error
}

func (w *eventWriter) str(key, s string) {
	if s != "" {
		w.b = appendString(append(w.b, key...), s)
	}
}

func (w *eventWriter) int(key string, v int64) {
	if v != 0 {
		w.b = strconv.AppendInt(append(w.b, key...), v, 10)
	}
}

// float formats f as encoding/json does: the shortest representation that
// round-trips, in 'f' form except for magnitudes below 1e-6 or from 1e21 up,
// which take 'e' form with a one-digit negative exponent written without its
// leading zero (e-7, not e-07).
func (w *eventWriter) float(key string, f float64) {
	if f == 0 {
		return
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	fmt := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		fmt = 'e'
	}
	b := strconv.AppendFloat(append(w.b, key...), f, fmt, -1, 64)
	if n := len(b); fmt == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.b = b
}

// appendString appends s as a JSON string. Printable ASCII outside the
// characters JSON or HTML-safe encoding escapes is copied as is; any other
// string takes json.Marshal's escaping, which telemetry strings (job keys,
// benchmark and collector names) never need.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainByte reports whether c stands for itself inside a JSON string
// written by encoding/json with HTML escaping and read back unchanged.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// lineDecoder decodes the lines of one stream. It interns the identity
// strings (run, benchmark, collector, phase) that repeat on every event, so
// a decoded stream holds one copy of each.
type lineDecoder struct {
	strs map[string]string
}

// decode decodes one line. Lines in the canonical form take the fast
// parser; every other line goes to json.Unmarshal into a fresh Event, so
// both paths decode exactly as json.Unmarshal does.
func (d *lineDecoder) decode(line []byte) (Event, error) {
	var e Event
	if d.parse(line, &e) {
		return e, nil
	}
	return unmarshalEvent(line)
}

// unmarshalEvent is the fallback, kept out of line so that decode's Event
// does not escape to the heap through json.Unmarshal's interface argument.
func unmarshalEvent(line []byte) (Event, error) {
	var e Event
	err := json.Unmarshal(line, &e)
	return e, err
}

// parse decodes a line in the canonical form: one object of known keys
// (a repeated key's last value wins, as in json.Unmarshal) whose values are
// strings of plain ASCII without escapes or JSON numbers of the field's
// type. It reports false — leaving e partly filled — on anything else,
// including input json.Unmarshal would reject, which the fallback then
// reports.
func (d *lineDecoder) parse(s []byte, e *Event) bool {
	i := skipSpace(s, 0)
	if i == len(s) || s[i] != '{' {
		return false
	}
	i = skipSpace(s, i+1)
	if i < len(s) && s[i] == '}' {
		return skipSpace(s, i+1) == len(s)
	}
	for {
		key, j := scanString(s, i)
		if j < 0 {
			return false
		}
		i = skipSpace(s, j)
		if i == len(s) || s[i] != ':' {
			return false
		}
		if i = d.field(s, skipSpace(s, i+1), key, e); i < 0 {
			return false
		}
		i = skipSpace(s, i)
		if i == len(s) {
			return false
		}
		switch s[i] {
		case ',':
			i = skipSpace(s, i+1)
		case '}':
			return skipSpace(s, i+1) == len(s)
		default:
			return false
		}
	}
}

// field decodes the value at s[i:] into the field named key and returns
// the index just past it, or -1 when the key is unknown or the value is not
// in canonical form for the field.
func (d *lineDecoder) field(s []byte, i int, key []byte, e *Event) int {
	switch string(key) {
	case "kind":
		v, j := scanString(s, i)
		if j >= 0 {
			e.Kind = lookupKind(v)
		}
		return j
	case "seq":
		return parseInt(s, i, 64, &e.Seq)
	case "t_ns":
		return parseInt(s, i, 64, &e.TNS)
	case "run":
		return d.internString(s, i, &e.Run)
	case "benchmark":
		return d.internString(s, i, &e.Benchmark)
	case "collector":
		return d.internString(s, i, &e.Collector)
	case "phase":
		return d.internString(s, i, &e.Phase)
	case "dur_ns":
		return parseFloat(s, i, &e.DurNS)
	case "cpu_ns":
		return parseFloat(s, i, &e.CPUNS)
	case "value":
		return parseFloat(s, i, &e.Value)
	case "aux":
		return parseFloat(s, i, &e.Aux)
	case "cycle":
		return parseInt(s, i, 64, &e.Cycle)
	case "cause":
		return parseInt(s, i, 64, &e.Cause)
	case "heap_used":
		return parseFloat(s, i, &e.HeapUsed)
	case "live_est":
		return parseFloat(s, i, &e.LiveEst)
	case "mut_frac":
		return parseFloat(s, i, &e.MutFrac)
	case "gc_frac":
		return parseFloat(s, i, &e.GCFrac)
	case "stall_frac":
		return parseFloat(s, i, &e.StallFrac)
	case "busy_ns":
		return parseFloat(s, i, &e.BusyNS)
	case "steal_ns":
		return parseFloat(s, i, &e.StealNS)
	case "park_ns":
		return parseFloat(s, i, &e.ParkNS)
	case "anchor_tasks":
		return parseFloat(s, i, &e.AnchorTasks)
	case "grid_tasks":
		return parseFloat(s, i, &e.GridTasks)
	case "steals":
		return parseFloat(s, i, &e.Steals)
	case "queue_max":
		return parseFloat(s, i, &e.QueueMax)
	case "replica":
		var n int64
		j := parseInt(s, i, 0, &n)
		e.Replica = int(n)
		return j
	case "queue_ns":
		return parseInt(s, i, 64, &e.QueueNS)
	case "gc_ns":
		return parseInt(s, i, 64, &e.GCNS)
	case "service_ns":
		return parseInt(s, i, 64, &e.ServiceNS)
	case "retry_ns":
		return parseInt(s, i, 64, &e.RetryNS)
	case "gc_pauses":
		return parseInt(s, i, 64, &e.GCPauses)
	case "in_flight":
		return parseInt(s, i, 64, &e.InFlight)
	case "goodput":
		return parseFloat(s, i, &e.Goodput)
	case "burn_rate":
		return parseFloat(s, i, &e.BurnRate)
	case "err":
		v, j := scanString(s, i)
		if j >= 0 {
			e.Err = string(v)
		}
		return j
	}
	return -1
}

// internString decodes a canonical string value into *dst, sharing one
// copy of each distinct value across the stream.
func (d *lineDecoder) internString(s []byte, i int, dst *string) int {
	v, j := scanString(s, i)
	if j < 0 {
		return -1
	}
	str, ok := d.strs[string(v)]
	if !ok {
		str = string(v)
		d.strs[str] = str
	}
	*dst = str
	return j
}

// parseInt decodes an integer value of the given bit size (0 for int) as
// json.Unmarshal does: a number that strconv.ParseInt accepts in full;
// anything else is not canonical.
func parseInt(s []byte, i, bitSize int, dst *int64) int {
	j := scanNumber(s, i)
	if j < 0 {
		return -1
	}
	n, err := strconv.ParseInt(string(s[i:j]), 10, bitSize)
	if err != nil {
		return -1
	}
	*dst = n
	return j
}

// parseFloat decodes a float value as json.Unmarshal does; a number out of
// float64 range is not canonical (json.Unmarshal rejects it).
func parseFloat(s []byte, i int, dst *float64) int {
	j := scanNumber(s, i)
	if j < 0 {
		return -1
	}
	f, err := strconv.ParseFloat(string(s[i:j]), 64)
	if err != nil {
		return -1
	}
	*dst = f
	return j
}

// scanString scans the string starting at s[i], which must open with a
// quote, and returns its contents and the index past the closing quote. It
// returns -1 unless every byte inside is plain printable ASCII with no
// escape.
func scanString(s []byte, i int) ([]byte, int) {
	if i == len(s) || s[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(s); j++ {
		switch c := s[j]; {
		case c == '"':
			return s[i+1 : j], j + 1
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}

// scanNumber returns the index past the JSON number starting at s[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or -1 when there is
// none.
func scanNumber(s []byte, i int) int {
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i == len(s):
		return -1
	case s[i] == '0':
		i++
	case isDigit(s[i]):
		i = skipDigits(s, i)
	default:
		return -1
	}
	if i < len(s) && s[i] == '.' {
		if i++; i == len(s) || !isDigit(s[i]) {
			return -1
		}
		i = skipDigits(s, i)
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == len(s) || !isDigit(s[i]) {
			return -1
		}
		i = skipDigits(s, i)
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(s []byte, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// skipSpace returns the index of the first non-whitespace byte at or after
// s[i], whitespace being JSON's: space, tab, carriage return and newline.
func skipSpace(s []byte, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
