package exper

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"chopin/internal/workload"
)

// TestCloseDuringMinHeapSearchCancelsCleanly is the shutdown stress test:
// Close racing an in-flight min-heap search must cancel its outstanding
// probe cleanly — the ticket resolves with ErrEngineClosed in its chain
// (never hangs), no partial search is written to the persistent cache, and
// no orchestration or probe goroutine leaks. The sleep schedule sweeps the
// close point across the search's phases so some iterations interrupt the
// exponential search, some the bisection, some the validation rounds, and
// some lose the race entirely (which must then have cached a complete,
// correct record).
func TestCloseDuringMinHeapSearchCancelsCleanly(t *testing.T) {
	d, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		cache, err := OpenCache(dir, ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{Workers: 2, Cache: cache})
		p := MinHeapParams{Events: 120, Iterations: 1, Invocations: 2, Seed: uint64(i + 1)}
		tk, err := e.SubmitMinHeap(d, p)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i) * 2 * time.Millisecond)
		if err := e.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", i, err)
		}

		select {
		case <-tk.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("iter %d: ticket never resolved after Close", i)
		}
		mb, waitErr := tk.Wait()
		if err := cache.Close(); err != nil {
			t.Fatalf("iter %d: cache close: %v", i, err)
		}

		// Reopen the cache: a cancelled search must have written nothing; a
		// search that beat the close must have written the full record.
		reopened, err := OpenCache(dir, ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		k, err := minHeapKey(d, p)
		if err != nil {
			t.Fatal(err)
		}
		rec, cached := reopened.getMinHeap(k)
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		if waitErr != nil {
			if !errors.Is(waitErr, ErrEngineClosed) {
				t.Fatalf("iter %d: ticket error %v, want ErrEngineClosed in chain", i, waitErr)
			}
			if cached {
				t.Fatalf("iter %d: cancelled search persisted a partial record: %+v", i, rec)
			}
		} else if cached && rec.MinHeapMB != mb {
			t.Fatalf("iter %d: cached %vMB, ticket resolved %vMB", i, rec.MinHeapMB, mb)
		}
	}

	// Goroutine-leak check: allow the runtime a moment to retire workers.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutines leaked across shutdowns: %d now vs %d at start", n, baseline)
	}
}

// TestMinHeapSearchRefusedAfterClose pins the cancellation contract for
// probes: a search started on a closed engine fails with ErrEngineClosed
// instead of running its probes inline (ordinary Submit keeps the inline
// fallback — see TestRunAfterCloseExecutesInline).
func TestMinHeapSearchRefusedAfterClose(t *testing.T) {
	e := New(Options{Workers: 1})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := e.MinHeapMB(testBench(t), MinHeapParams{Events: 60, Iterations: 1, Invocations: 1, Seed: 1})
	if !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("search after Close resolved %v, want ErrEngineClosed in chain", err)
	}
	if s := e.Stats(); s.Executed != 0 {
		t.Fatalf("search after Close executed probes inline: %+v", s)
	}
}
