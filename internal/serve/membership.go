package serve

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"dkip/internal/sim"
)

// Dynamic fleet membership: each daemon registers itself in the shared
// sim.Store as a heartbeat lease (a small JSON blob renewed every TTL/3)
// and serves the merged, expiry-filtered view over GET /v1/members. A Pool
// given PoolMembership refreshes its routing ring from that view between
// re-route rounds, so daemons join or leave mid-sweep without client
// restarts — and rendezvous routing guarantees surviving members' keys
// stay pinned while they do.

// Member is one fleet member as advertised over GET /v1/members.
type Member struct {
	// URL is the base URL peers and clients reach the daemon at.
	URL string `json:"url"`
	// Expires is the lease deadline in Unix milliseconds: a daemon that
	// stops heartbeating (crash, partition) vanishes from the view when its
	// lease passes, without anyone deregistering it.
	Expires int64 `json:"expires_unix_ms"`
}

// Live reports whether the lease is current.
func (m Member) Live(now time.Time) bool {
	return m.URL != "" && now.UnixMilli() < m.Expires
}

// normalizeBase canonicalizes a daemon base URL the way NewPool always has
// (trimmed, no trailing slash), so the same daemon advertised and seeded
// under cosmetically different spellings still occupies one ring slot.
func normalizeBase(base string) string {
	return strings.TrimRight(strings.TrimSpace(base), "/")
}

// membersKind is the store blob namespace membership leases are filed
// under: <dir>/members/<key[:2]>/<key>.bin.
const membersKind = "members"

// DefaultMemberTTL is the lease lifetime daemons announce with unless
// configured otherwise: long enough that a heartbeat every TTL/3 rides out
// scheduler hiccups, short enough that a crashed daemon leaves the view
// before a sweep burns many re-route rounds on it.
const DefaultMemberTTL = 15 * time.Second

// memberKey derives the content key a member's lease is filed under — a
// hex digest of the advertised URL, so re-announcing is an overwrite and
// two daemons can never collide unless they advertise the same URL.
func memberKey(url string) string {
	h := fnv.New64a()
	io.WriteString(h, url)
	return hex.EncodeToString(h.Sum(nil))
}

// Registry is a daemon's handle on the fleet's store-backed membership:
// Announce writes this daemon's lease, Heartbeat renews it periodically,
// Leave withdraws it (the graceful-shutdown path), and List reads the
// merged live view. All methods are safe for concurrent use; every daemon
// sharing one store directory sees one membership.
type Registry struct {
	store *sim.Store
	self  string
	ttl   time.Duration

	mu   sync.Mutex
	stop chan struct{} // non-nil while a heartbeat loop runs
	done chan struct{} // closed once the latest heartbeat loop has exited
}

// NewRegistry builds a registry over the fleet's shared store. self is the
// base URL this daemon advertises (how peers reach it, not its listen
// address); ttl <= 0 uses DefaultMemberTTL.
func NewRegistry(store *sim.Store, self string, ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = DefaultMemberTTL
	}
	return &Registry{store: store, self: normalizeBase(self), ttl: ttl}
}

// Self returns the advertised base URL.
func (r *Registry) Self() string { return r.self }

// Announce writes (or renews) this daemon's lease: present for one TTL
// from now.
func (r *Registry) Announce() error {
	lease := Member{URL: r.self, Expires: time.Now().Add(r.ttl).UnixMilli()}
	data, err := json.Marshal(lease)
	if err != nil {
		return fmt.Errorf("serve: announce member: %w", err)
	}
	if err := r.store.PutBlob(membersKind, memberKey(r.self), data); err != nil {
		return fmt.Errorf("serve: announce member: %w", err)
	}
	return nil
}

// Heartbeat announces immediately, then renews the lease every TTL/3 from
// a background goroutine until Leave (or the returned stop function) is
// called; both return only once that goroutine has exited, so no renewal
// follows them. Renewal failures are reported through onErr (nil to
// ignore) and retried on the next beat — a transiently unwritable store
// costs freshness, not membership, until the lease actually expires.
func (r *Registry) Heartbeat(onErr func(error)) (stop func()) {
	if err := r.Announce(); err != nil && onErr != nil {
		onErr(err)
	}
	r.mu.Lock()
	if r.stop != nil {
		// Already beating: the existing loop keeps the lease fresh.
		r.mu.Unlock()
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	r.stop, r.done = quit, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(r.ttl / 3)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := r.Announce(); err != nil && onErr != nil {
					onErr(err)
				}
			case <-quit:
				return
			}
		}
	}()
	return func() { r.stopHeartbeat() }
}

// stopHeartbeat stops the heartbeat loop and returns only once it has
// exited, so no beat can renew the lease afterwards: one already inside
// Announce, or a pending tick the loop's select picks over the closed stop
// channel, would otherwise rewrite a lease Leave is about to delete.
func (r *Registry) stopHeartbeat() {
	r.mu.Lock()
	if r.stop != nil {
		close(r.stop)
		r.stop = nil
	}
	done := r.done
	r.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Leave stops the heartbeat and withdraws the lease — the graceful
// departure a SIGTERMed daemon performs so clients drop it immediately
// instead of waiting out the TTL.
func (r *Registry) Leave() error {
	r.stopHeartbeat()
	if err := r.store.DeleteBlob(membersKind, memberKey(r.self)); err != nil {
		return fmt.Errorf("serve: leave fleet: %w", err)
	}
	return nil
}

// List returns the live membership view, sorted by URL: every lease in the
// store that has not expired. Leases dead for over ten TTLs are garbage-
// collected in passing, so a fleet that churns hosts for months does not
// accumulate tombstones.
func (r *Registry) List() []Member {
	now := time.Now()
	var out []Member
	_ = r.store.WalkBlobs(membersKind, func(key string, data []byte) error {
		var m Member
		if err := json.Unmarshal(data, &m); err != nil {
			return nil // torn or foreign blob: not a member
		}
		if m.Live(now) {
			out = append(out, m)
		} else if now.UnixMilli()-m.Expires > 10*r.ttl.Milliseconds() {
			_ = r.store.DeleteBlob(membersKind, key)
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
