package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dkip/internal/pipeline"
	"dkip/internal/sim"
)

// A progress stream over one key: the initial event reports nothing done,
// the stream follows the key to resolution, and the final event closes it.
func TestProgressStreamFollowsResolution(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	spec := testSpecs()[0]

	go func() {
		time.Sleep(150 * time.Millisecond)
		if _, err := NewClient(ts.URL).RunAll([]sim.RunSpec{spec}); err != nil {
			t.Errorf("submission: %v", err)
		}
	}()

	var evs []ProgressEvent
	err := NewClient(ts.URL).Progress(context.Background(), []string{spec.Key()},
		100*time.Millisecond, func(ev ProgressEvent) { evs = append(evs, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("stream delivered no events")
	}
	if first := evs[0]; first.Done != 0 || first.Total != 1 {
		t.Errorf("first event %+v, want 0/1", first)
	}
	last := evs[len(evs)-1]
	if last.Done != 1 || last.Total != 1 || !last.Final {
		t.Errorf("last event %+v, want a final 1/1", last)
	}
}

// Keys already resolved (here: present in the store, as another fleet
// member would leave them) finalize the stream immediately; duplicates in
// the key list collapse.
func TestProgressResolvedImmediately(t *testing.T) {
	store, err := sim.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &sim.Result{Key: "ab12cd", Arch: "dkip", Bench: "synthetic", Stats: &pipeline.Stats{Committed: 1}}
	if err := store.Put(res); err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, store)
	var evs []ProgressEvent
	err = NewClient(ts.URL).Progress(context.Background(),
		[]string{"ab12cd", "ab12cd"}, 0, func(ev ProgressEvent) { evs = append(evs, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Done != 1 || evs[0].Total != 1 || !evs[0].Final {
		t.Fatalf("events %+v, want one final 1/1 (deduped)", evs)
	}
}

// A progress request without keys is a 400, and a canceled watcher is not
// an error — it is the caller hanging up.
func TestProgressValidationAndCancel(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	err := NewClient(ts.URL).Progress(context.Background(), nil, 0, func(ProgressEvent) {})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 400 {
		t.Fatalf("keyless progress: %v, want an HTTP 400", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- NewClient(ts.URL).Progress(ctx, []string{"feedbeef"}, 0, func(ProgressEvent) {})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("canceled watcher: %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled watcher never returned")
	}
}

// ProgressKeys extracts watchable keys the way the Pool submits them:
// deduplicated, order-preserving, uncacheable specs skipped.
func TestProgressKeys(t *testing.T) {
	specs := testSpecs() // four submissions, one duplicate pair
	keys := ProgressKeys(specs)
	if len(keys) != 3 {
		t.Fatalf("ProgressKeys kept %d keys for %d unique specs", len(keys), 3)
	}
	if keys[0] != specs[0].Key() || keys[1] != specs[1].Key() || keys[2] != specs[3].Key() {
		t.Error("ProgressKeys does not preserve first-seen order")
	}
}

// A manifest reader that connects and never drains must not pin its gate
// slot: the per-write deadline fails the wedged stream and frees the slot
// for real work.
func TestResultsStreamReleasesSlotOnStuckClient(t *testing.T) {
	store, err := sim.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Enough manifest bytes to overrun the kernel socket buffers so the
	// handler genuinely blocks in a write: ~400 entries × 64KiB of config.
	pad := strings.Repeat("x", 64<<10)
	for i := 0; i < 400; i++ {
		res := &sim.Result{
			Key:    fmt.Sprintf("%04x%060d", i, 0),
			Arch:   "dkip",
			Config: pad,
			Bench:  "synthetic",
			Stats:  &pipeline.Stats{Committed: 1},
		}
		if err := store.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := newTestServer(t, store, MaxRequests(1), func(s *Server) { s.streamWriteTimeout = 200 * time.Millisecond })

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /v1/results HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// Never read from conn: the daemon's writes back up until its deadline
	// fires. The single gate slot must come back for the submission below.
	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := NewClient(ts.URL).RunAll(testSpecs()[:1])
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("submission after the wedged stream: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("gate slot never released: the wedged manifest stream still holds it")
	}
	wg.Wait()
}
