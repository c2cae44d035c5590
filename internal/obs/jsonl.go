package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// JSONL is a Recorder that serializes events as one JSON object per line —
// the interchange format cmd/obsreport consumes. Writes are buffered and
// mutex-serialized, so pool workers recording concurrently never interleave
// bytes within a line. Every event is stamped with a monotonically
// increasing sequence number, and Close terminates the stream with a
// run_end event, so decoders can tell a clean stream from a truncated one
// and detect dropped events (DecodeStream).
type JSONL struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	buf  []byte       // one encoded line, reused across events
	sync func() error // underlying writer's Sync, when it has one
	err  error        // first write error; subsequent records are dropped
	seen int64
}

// NewJSONL wraps w in a JSONL recorder. The caller owns w; call Close to
// flush buffered events before discarding the recorder or closing w. When w
// has a Sync method (*os.File does), Close also syncs it, so a completed
// stream survives a host crash immediately after the run.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 64<<10)
	j := &JSONL{bw: bw}
	if s, ok := w.(interface{ Sync() error }); ok {
		j.sync = s.Sync
	}
	return j
}

// Enabled always reports true.
func (j *JSONL) Enabled() bool { return true }

// Record writes the event as one JSON line, stamping the stream's next
// sequence number. The first write error sticks: later events are dropped
// and the error is reported by Close, so a full disk degrades telemetry
// rather than the experiment.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.record(e)
}

// record is Record without the lock, shared with Close.
func (j *JSONL) record(e Event) {
	if j.err != nil {
		return
	}
	e.Seq = j.seen + 1
	b, err := appendEvent(j.buf[:0], &e)
	if err == nil {
		j.buf = b
		_, err = j.bw.Write(b)
	}
	if err != nil {
		j.err = fmt.Errorf("obs: writing event: %w", err)
		return
	}
	j.seen++
}

// RecordBatch writes a slice of events under one lock acquisition — the
// flush path for per-job buffers, which batch a whole invocation's
// telemetry and hand it over at the job boundary instead of contending the
// sink once per event.
func (j *JSONL) RecordBatch(evs []Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range evs {
		j.record(e)
	}
}

// Events returns how many events have been recorded (and not dropped).
func (j *JSONL) Events() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seen
}

// Close terminates the stream with a run_end event (whose Value is the
// number of events recorded before it), flushes buffered events, syncs the
// underlying writer when it supports it, and returns the first error
// encountered by Record, the flush or the sync. It does not close the
// underlying writer. A stream decoded without a trailing run_end was
// crash-truncated, not short.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.record(Event{Kind: KindRunEnd, Value: float64(j.seen)})
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("obs: flushing events: %w", err)
	}
	if j.sync != nil {
		if err := j.sync(); err != nil && j.err == nil {
			j.err = fmt.Errorf("obs: syncing events: %w", err)
		}
	}
	return j.err
}

// DecodeJSONL reads a JSONL event stream, calling fn for each event. Each
// line decodes as json.Unmarshal would decode it into a fresh Event; lines
// holding only whitespace are skipped. A malformed line aborts with its
// 1-based line number, since a telemetry file is machine-written and
// corruption means truncation. Lines may be of any length.
func DecodeJSONL(r io.Reader, fn func(Event) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	d := lineDecoder{strs: make(map[string]string)}
	var long []byte // a line longer than br's buffer, reassembled
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("obs: reading line %d: %w", n, err)
		}
		if end := len(line) - 1; end >= 0 && line[end] == '\n' {
			line = line[:end]
		}
		if skipSpace(line, 0) < len(line) {
			e, derr := d.decode(line)
			if derr != nil {
				return fmt.Errorf("obs: line %d: %w", n, derr)
			}
			if ferr := fn(e); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// StreamInfo summarizes the integrity of a decoded telemetry stream.
type StreamInfo struct {
	// Events is the number of events decoded (including the run_end).
	Events int64
	// Clean reports that the stream ended with a run_end event: the sink
	// was closed in an orderly fashion. A false Clean means the producing
	// run crashed or was killed mid-stream.
	Clean bool
	// Gaps counts sequence numbers skipped between consecutive events —
	// events that were recorded (or claimed) upstream but never reached the
	// stream. Zero on a healthy file.
	Gaps int64
	// OutOfOrder counts events whose sequence number did not increase over
	// the previous one (reordered or duplicated lines).
	OutOfOrder int64
	// Unsequenced counts events with no sequence number at all (streams
	// written before sequencing, or events hand-built in tests).
	Unsequenced int64
	// Unknown counts events whose kind this binary does not know — a stream
	// written by a newer schema. They are audited for sequence integrity but
	// not passed to the decode callback; an unknown kind is forward
	// compatibility at work, not corruption, so Err ignores it.
	Unknown int64
}

// Err returns a non-nil error describing the first integrity problem the
// info records (truncation, gaps, reordering), or nil for a healthy stream.
func (s StreamInfo) Err() error {
	switch {
	case !s.Clean:
		return fmt.Errorf("obs: stream truncated: %d events and no run_end", s.Events)
	case s.Gaps > 0:
		return fmt.Errorf("obs: stream dropped %d events (sequence gaps)", s.Gaps)
	case s.OutOfOrder > 0:
		return fmt.Errorf("obs: %d events out of sequence order", s.OutOfOrder)
	}
	return nil
}

// DecodeStream reads a JSONL telemetry stream like DecodeJSONL while
// auditing its integrity: sequence-number gaps, reordering, and whether the
// stream terminates with a clean run_end. The returned StreamInfo is valid
// even when decoding aborts early (the prefix is audited); fn also receives
// the terminal run_end event. Events of a kind this binary does not know
// (KindUnknown after lenient decoding) are counted in info.Unknown and
// skipped — never handed to fn — so a stream written by a newer schema
// degrades to partial decoding instead of failure.
func DecodeStream(r io.Reader, fn func(Event) error) (StreamInfo, error) {
	var info StreamInfo
	var lastSeq int64
	err := DecodeJSONL(r, func(e Event) error {
		info.Events++
		info.Clean = e.Kind == KindRunEnd // only counts if nothing follows
		switch {
		case e.Seq == 0:
			info.Unsequenced++
		case e.Seq <= lastSeq:
			info.OutOfOrder++
		default:
			if lastSeq != 0 && e.Seq != lastSeq+1 {
				info.Gaps += e.Seq - lastSeq - 1
			}
			lastSeq = e.Seq
		}
		if e.Kind == KindUnknown {
			info.Unknown++
			return nil
		}
		if fn != nil {
			return fn(e)
		}
		return nil
	})
	if err != nil {
		info.Clean = false
	}
	return info, err
}
