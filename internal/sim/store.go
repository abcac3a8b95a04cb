package sim

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// storeVersion stamps every on-disk entry. Entries written under a different
// version are treated as absent (re-simulated and overwritten), so a schema
// change to Result or pipeline.Stats never corrupts a warm cache directory —
// it just invalidates it.
const storeVersion = 1

// storeEntry is the on-disk envelope around one Result: the format version,
// the content key the file is addressed by (echoed inside so a renamed or
// misplaced file is detectable), and the record itself.
type storeEntry struct {
	Version int     `json:"version"`
	Key     string  `json:"key"`
	Result  *Result `json:"result"`
}

// Store is a persistent, content-addressed result cache: one JSON entry per
// unique RunSpec.Key(), laid out as
//
//	<dir>/objects/<key[:2]>/<key>.json
//
// (a two-hex-character fan-out keeps directories small at full-sweep scale).
// Writes are atomic — a temp file in the destination directory renamed into
// place — so concurrent writers (two shards sharing one directory, or a
// process killed mid-write) can never publish a torn entry; a truncated or
// otherwise unreadable entry reads as a miss, never an error. A Store handle
// is safe for concurrent use and for sharing one directory across processes.
type Store struct {
	dir string
}

// storeTempMaxAge is how old a .tmp-* file must be before OpenStore sweeps
// it. Atomic writes hold their temp file for milliseconds; an hour-old one
// belongs to a writer that was killed between CreateTemp and Rename, and
// nothing else will ever remove it.
const storeTempMaxAge = time.Hour

// OpenStore opens the store rooted at dir, creating the directory tree if
// needed, and sweeps stale temp files orphaned by killed writers.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("sim: open store: %w", err)
	}
	s := &Store{dir: dir}
	s.sweepTemp()
	return s, nil
}

// sweepTemp removes .tmp-* files older than storeTempMaxAge anywhere under
// the store root. Put (and PutBlob) only unlink their temp file on error
// paths — a writer killed mid-Put leaves its orphan forever otherwise. The
// age gate keeps concurrent writers' live temp files safe; sweep errors are
// ignored (the worst case is the orphan surviving until the next open).
func (s *Store) sweepTemp() {
	cutoff := time.Now().Add(-storeTempMaxAge)
	_ = filepath.WalkDir(s.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		if info, err := d.Info(); err == nil && info.ModTime().Before(cutoff) {
			_ = os.Remove(p)
		}
		return nil
	})
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a content key to its entry file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

// Get returns the stored Result for a content key. The second return is
// false for any entry that cannot be served: missing, unreadable, truncated,
// written under a different format version, or stored under a mismatched
// key. Corruption is deliberately indistinguishable from a miss — the caller
// re-simulates and the next Put heals the entry.
func (s *Store) Get(key string) (*Result, bool) {
	if len(key) < 2 {
		return nil, false
	}
	return decodeEntryFile(s.path(key), key)
}

// Has reports whether the store holds an entry file for the content key,
// without decoding it — the cheap existence probe behind the serve layer's
// progress streams, where thousands of keys may be polled per tick. A
// corrupt entry still reads as present here; consumers that actually load
// the record (Get) keep the validity checks.
func (s *Store) Has(key string) bool {
	if len(key) < 2 {
		return false
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// decodeEntryFile reads and validates one entry file, expecting it to hold
// the given content key. Shared by Get (which derives the path from the key)
// and Walk (which has the path in hand and derives the key from the file
// name — never the directory, so an entry filed under the wrong fan-out
// directory is still served rather than silently dropped).
func decodeEntryFile(path, key string) (*Result, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var e storeEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Version != storeVersion || e.Key != key || e.Result == nil || e.Result.Stats == nil {
		return nil, false
	}
	return e.Result, true
}

// Put persists a Result under its content key, atomically: the entry is
// written to a temp file in the destination directory and renamed into
// place. The stored record is normalized (Cached/Skipped cleared) so that a
// result round-tripped through the store is byte-identical to the fresh one.
func (s *Store) Put(res *Result) error {
	if res == nil || len(res.Key) < 2 {
		return fmt.Errorf("sim: store put: result carries no content key")
	}
	r := res.clone(false)
	r.Skipped = false
	data, err := json.MarshalIndent(storeEntry{Version: storeVersion, Key: r.Key, Result: r}, "", "  ")
	if err != nil {
		return fmt.Errorf("sim: store put: %w", err)
	}
	if err := writeAtomic(s.path(r.Key), data); err != nil {
		return fmt.Errorf("sim: store put: %w", err)
	}
	return nil
}

// writeAtomic writes data to path through a temp file in path's directory,
// created with the directory if need be, and renamed into place, so a
// reader sees either no file or all of data. A failed write removes its
// temp file.
func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Walk streams every valid entry to fn, one at a time, in ascending key
// order for correctly filed entries (entry files are named by key, and
// WalkDir traverses lexically), so arbitrarily large manifests can be
// processed in constant memory — the serve layer's NDJSON endpoint encodes
// straight off it. Each walked file is decoded directly rather than
// re-fetched through Get, so an entry filed under the wrong fan-out
// directory (e.g. a hand-merged shard dir) is still yielded — possibly out
// of key order, which List's sort repairs. A non-nil error from fn aborts
// the walk and is returned. Entries that fail the Get checks (corrupt,
// stale version, key not matching the file name) are silently skipped.
func (s *Store) Walk(fn func(*Result) error) error {
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			return nil
		}
		if res, ok := decodeEntryFile(p, strings.TrimSuffix(d.Name(), ".json")); ok {
			return fn(res)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sim: store walk: %w", err)
	}
	return nil
}

// List decodes every valid entry in the store, sorted by key — the manifest
// API for merging shard outputs: read each shard's store (or one shared
// directory) and Put the union wherever it should land.
func (s *Store) List() ([]*Result, error) {
	var out []*Result
	if err := s.Walk(func(res *Result) error {
		out = append(out, res)
		return nil
	}); err != nil {
		return nil, err
	}
	// Walk yields key order for correctly filed entries, but a misplaced
	// entry (wrong fan-out directory) arrives wherever WalkDir finds it —
	// this sort is what upholds List's ordering contract.
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Keys returns the sorted content keys of every valid entry.
func (s *Store) Keys() ([]string, error) {
	results, err := s.List()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(results))
	for i, r := range results {
		keys[i] = r.Key
	}
	return keys, nil
}

// StoreStats summarizes a store for monitoring endpoints (dkipd
// /v1/metrics).
type StoreStats struct {
	// Dir is the store's root directory.
	Dir string `json:"dir"`
	// Entries counts entry files under objects/, including entries a
	// current Get would reject (stale version, corruption) — it is a
	// capacity signal, not a validity census.
	Entries int `json:"entries"`
	// Checkpoints counts architectural-checkpoint blobs stored for sampled
	// runs.
	Checkpoints int `json:"checkpoints"`
}

// Stats counts the store's entry files without decoding them.
func (s *Store) Stats() (StoreStats, error) {
	st := StoreStats{Dir: s.dir}
	count := func(root, suffix string) (int, error) {
		n := 0
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return filepath.SkipAll
				}
				return err
			}
			if !d.IsDir() && strings.HasSuffix(d.Name(), suffix) {
				n++
			}
			return nil
		})
		return n, err
	}
	var err error
	if st.Entries, err = count(filepath.Join(s.dir, "objects"), ".json"); err != nil {
		return st, fmt.Errorf("sim: store stats: %w", err)
	}
	if st.Checkpoints, err = count(filepath.Join(s.dir, ckptKind), ".bin"); err != nil {
		return st, fmt.Errorf("sim: store stats: %w", err)
	}
	return st, nil
}

// blobPath maps a (kind, key) pair to its blob file, with the same two-char
// fan-out as result entries:
//
//	<dir>/<kind>/<key[:2]>/<key>.bin
func (s *Store) blobPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key+".bin")
}

// GetBlob returns the stored bytes for a content-keyed binary blob (e.g. an
// architectural checkpoint). Like Get, anything unservable — missing,
// unreadable — reads as a miss; the blob's internal integrity is the
// caller's codec's business.
func (s *Store) GetBlob(kind, key string) ([]byte, bool) {
	if len(key) < 2 || kind == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.blobPath(kind, key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// WalkBlobs streams every blob of one kind to fn as (key, data) pairs, in
// ascending key order for correctly filed blobs (blob files are named by
// key and WalkDir traverses lexically). A missing kind directory walks zero
// blobs, not an error — the natural state of a store that never held that
// kind. A non-nil error from fn aborts the walk and is returned. Unreadable
// blob files are silently skipped, matching Get's corruption-is-a-miss
// stance.
func (s *Store) WalkBlobs(kind string, fn func(key string, data []byte) error) error {
	root := filepath.Join(s.dir, kind)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return filepath.SkipAll
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".bin") {
			return nil
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return nil
		}
		return fn(strings.TrimSuffix(d.Name(), ".bin"), data)
	})
	if err != nil {
		return fmt.Errorf("sim: store walk blobs: %w", err)
	}
	return nil
}

// DeleteBlob removes one blob; deleting an absent blob is a no-op, so
// concurrent removers (two daemons expiring the same stale membership
// lease) never fail each other.
func (s *Store) DeleteBlob(kind, key string) error {
	if len(key) < 2 || kind == "" {
		return fmt.Errorf("sim: store delete blob: bad kind/key %q/%q", kind, key)
	}
	if err := os.Remove(s.blobPath(kind, key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("sim: store delete blob: %w", err)
	}
	return nil
}

// PutBlob persists a binary blob under its content key, atomically (temp
// file + rename, like Put). Blobs are immutable by construction — a key is
// a hash of what produced the bytes — so concurrent writers racing on one
// key publish identical content and either rename wins.
func (s *Store) PutBlob(kind, key string, data []byte) error {
	if len(key) < 2 || kind == "" {
		return fmt.Errorf("sim: store put blob: bad kind/key %q/%q", kind, key)
	}
	if err := writeAtomic(s.blobPath(kind, key), data); err != nil {
		return fmt.Errorf("sim: store put blob: %w", err)
	}
	return nil
}
