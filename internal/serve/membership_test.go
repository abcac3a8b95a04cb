package serve

import (
	"errors"
	"testing"
	"time"

	"dkip/internal/sim"
)

// Registry lifecycle over one shared store: announce makes a daemon
// visible, Leave withdraws it immediately, an unrenewed lease expires on
// its own, and leases long dead are garbage-collected off disk.
func TestRegistryLifecycle(t *testing.T) {
	store, err := sim.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ra := NewRegistry(store, "http://a:8321/", 0) // trailing slash normalized, TTL defaulted
	rb := NewRegistry(store, "http://b:8321", 40*time.Millisecond)
	if err := ra.Announce(); err != nil {
		t.Fatal(err)
	}
	if err := rb.Announce(); err != nil {
		t.Fatal(err)
	}
	urls := func() []string {
		var out []string
		for _, m := range ra.List() {
			out = append(out, m.URL)
		}
		return out
	}
	if got := urls(); len(got) != 2 || got[0] != "http://a:8321" || got[1] != "http://b:8321" {
		t.Fatalf("List after two announces: %v", got)
	}

	if err := ra.Leave(); err != nil {
		t.Fatal(err)
	}
	if got := urls(); len(got) != 1 || got[0] != "http://b:8321" {
		t.Fatalf("List after a left: %v", got)
	}

	// b's short lease expires without anyone deregistering it.
	time.Sleep(60 * time.Millisecond)
	if got := urls(); len(got) != 0 {
		t.Fatalf("List served an expired lease: %v", got)
	}
	// The tombstone survives until it is ten TTLs stale, then a List GCs it.
	if _, ok := store.GetBlob("members", memberKey("http://b:8321")); !ok {
		t.Fatal("expired lease was GCed before its tombstone window passed")
	}
	// GC is judged against the reader's TTL, so the short-TTL registry
	// collects it; ra (default TTL) would keep the tombstone for minutes.
	time.Sleep(450 * time.Millisecond) // well past 10 × 40ms
	rb.List()
	if _, ok := store.GetBlob("members", memberKey("http://b:8321")); ok {
		t.Fatal("long-dead lease was never garbage-collected")
	}
}

// Heartbeat keeps a short lease alive well past its TTL, and stopping it
// lets the lease lapse.
func TestRegistryHeartbeatKeepsLeaseFresh(t *testing.T) {
	store, err := sim.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(store, "http://a:1", 90*time.Millisecond)
	stop := r.Heartbeat(func(err error) { t.Errorf("heartbeat: %v", err) })
	defer stop()
	time.Sleep(250 * time.Millisecond) // several TTLs
	if got := len(r.List()); got != 1 {
		t.Fatalf("heartbeat did not keep the lease: %d members live", got)
	}
	if err := r.Leave(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.List()); got != 0 {
		t.Fatalf("member visible after Leave: %d", got)
	}
}

// Leave must not return while the heartbeat can still write the lease: a
// beat already inside Announce, or a pending tick, would rewrite the lease
// Leave deleted and keep a departed daemon in the fleet view for a TTL. A
// short TTL makes beats frequent enough to overlap Leave on most cycles.
func TestRegistryLeaveStopsHeartbeat(t *testing.T) {
	store, err := sim.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(store, "http://a:1", 3*time.Millisecond)
	present := 0
	const cycles = 300
	for i := 0; i < cycles; i++ {
		r.Heartbeat(func(err error) { t.Errorf("heartbeat: %v", err) })
		time.Sleep(2 * time.Millisecond)
		if err := r.Leave(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		if _, ok := store.GetBlob(membersKind, memberKey(r.Self())); ok {
			present++
		}
	}
	if present > 0 {
		t.Errorf("member blob present after %d of %d Leaves", present, cycles)
	}
}

// GET /v1/members answers 404 on a daemon without membership configured —
// the backward-compatibility signal Pool keys off — and serves the view
// when one is attached.
func TestMembersEndpoint(t *testing.T) {
	bare, _ := newTestServer(t, nil)
	_, err := NewClient(bare.URL).Members()
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 404 {
		t.Fatalf("Members on a membership-less daemon: %v, want an HTTP 404", err)
	}

	view := []Member{{URL: "http://a:1", Expires: time.Now().Add(time.Minute).UnixMilli()}}
	ts, _ := newTestServer(t, nil, WithMembers(func() []Member { return view }))
	got, err := NewClient(ts.URL).Members()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].URL != "http://a:1" {
		t.Fatalf("Members = %v, want the attached view", got)
	}
}
