package artifact

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sim"
)

// Cache is a directory of content-addressed artifacts. All methods are
// safe for concurrent use from multiple goroutines and — via lock files —
// multiple processes sharing the directory.
//
// Failure policy: the cache is an accelerator, never a correctness
// dependency. Unreadable, torn, or corrupt entries are removed and
// reported as misses; write failures degrade to "compute without
// persisting". No method returns an error for cache trouble — only Open
// can fail, when the directory itself is unusable.
type Cache struct {
	dir      string
	maxBytes int64

	// lockWait bounds how long a process waits on another writer's lock
	// before recording without persisting; lockStale is the age past
	// which a lock file is presumed abandoned (crashed writer) and
	// broken. Overridable in tests.
	lockWait  time.Duration
	lockStale time.Duration
	// host names this machine in the locks this process holds, so a
	// waiter on the same host can tell when a holder has died.
	host string

	// lockSeen tracks when this process first observed each lock file
	// (path → lockObservation). Staleness is measured on the local
	// monotonic clock from that first observation — never by comparing
	// the lock's mtime against our wall clock, which on a shared
	// filesystem mixes two machines' clocks and breaks live locks (or
	// preserves dead ones) under skew.
	lockSeen sync.Map

	hits        atomic.Uint64
	misses      atomic.Uint64
	stores      atomic.Uint64
	corrupt     atomic.Uint64
	evictions   atomic.Uint64
	touchFails  atomic.Uint64
	bytesLoaded atomic.Uint64
	bytesStored atomic.Uint64
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits, Misses, Stores uint64
	Corrupt, Evictions   uint64
	// TouchFailures counts hits whose LRU mtime freshen failed. The hit
	// itself is unaffected, but an entry that cannot be freshened ages
	// toward eviction as if it were idle, so a persistently failing
	// touch (read-only cache dir, exotic filesystem) surfaces here
	// rather than as silent premature evictions.
	TouchFailures uint64
	BytesLoaded   uint64
	BytesStored   uint64
}

// Open creates (if needed) and returns the cache rooted at dir.
// maxBytes ≤ 0 disables eviction.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open cache: %w", err)
	}
	// Without a host name no lock reads as this host's, so dead owners
	// wait out the observation window as on other hosts: the safe side.
	host, _ := os.Hostname()
	return &Cache{
		dir:       dir,
		maxBytes:  maxBytes,
		lockWait:  2 * time.Minute,
		lockStale: 10 * time.Minute,
		host:      host,
	}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stores:        c.stores.Load(),
		Corrupt:       c.corrupt.Load(),
		Evictions:     c.evictions.Load(),
		TouchFailures: c.touchFails.Load(),
		BytesLoaded:   c.bytesLoaded.Load(),
		BytesStored:   c.bytesStored.Load(),
	}
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".thsa") }
func (c *Cache) lock(key string) string { return filepath.Join(c.dir, key+".lock") }

// LoadRecorded returns the recording stored under key, or ok=false on any
// miss: absent, written by another codec version, or corrupt (corrupt
// entries are removed so the next store overwrites them cleanly). A hit
// freshens the entry's mtime, which is the LRU recency signal.
func (c *Cache) LoadRecorded(key string) (*sim.Recorded, bool) {
	rec, ok := c.loadRecorded(key)
	if !ok {
		c.misses.Add(1)
	}
	return rec, ok
}

// LoadRunOutput returns the run snapshot stored under key, with the same
// miss semantics as LoadRecorded. A run section written under another
// RunOutputVersion is version skew: a silent miss, never corruption.
func (c *Cache) LoadRunOutput(key string) (*RunOutput, bool) {
	r, ok := c.loadRun(key)
	if !ok {
		c.misses.Add(1)
	}
	return r, ok
}

// load is the typed loaders without the miss accounting: the
// loadOrCompute singleflight probes the same key several times per
// logical lookup (before the lock, under the lock, while polling another
// writer) and must count one hit or one miss total, not one per probe.
// has reports whether the decoded file carries the section the caller
// wants — a key never legitimately maps to a different section set, so
// a mismatch is treated exactly like corruption.
func (c *Cache) load(key string, has func(*File) bool) (*File, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	f, err := Decode(data)
	if err != nil || !has(f) {
		// Version skew is an honest miss; anything else is corruption.
		// Either way the entry is useless under this key: drop it so
		// regeneration overwrites rather than re-tripping forever.
		if !errors.Is(err, ErrVersionSkew) {
			c.corrupt.Add(1)
		}
		os.Remove(c.path(key))
		return nil, false
	}
	// The mtime freshen is the LRU recency signal, not part of the hit:
	// if it fails the caller still gets its data and the entry simply
	// keeps aging. Count the failure so an unwritable cache shows up in
	// the stderr stats instead of as mysterious evictions.
	now := time.Now()
	if err := os.Chtimes(c.path(key), now, now); err != nil {
		c.touchFails.Add(1)
	}
	c.hits.Add(1)
	c.bytesLoaded.Add(uint64(len(data)))
	return f, true
}

func (c *Cache) loadRecorded(key string) (*sim.Recorded, bool) {
	f, ok := c.load(key, func(f *File) bool { return f.Recorded != nil })
	if !ok {
		return nil, false
	}
	return f.Recorded, true
}

func (c *Cache) loadRun(key string) (*RunOutput, bool) {
	f, ok := c.load(key, func(f *File) bool { return f.Run != nil })
	if !ok {
		return nil, false
	}
	return f.Run, true
}

// StoreRecorded persists rec under key: encode, write to a temp file in
// the same directory, fsync, rename. A crash at any point leaves either
// the old entry or a stray temp file — never a torn artifact (torn temp
// files also fail the checksum if ever read). Failures are swallowed:
// the caller already has the recording.
func (c *Cache) StoreRecorded(key string, rec *sim.Recorded) {
	c.store(key, &File{Recorded: rec})
}

// StoreRunOutput persists a whole run snapshot under key with the same
// crash-safety and failure policy as StoreRecorded.
func (c *Cache) StoreRunOutput(key string, r *RunOutput) {
	c.store(key, &File{Run: r})
}

// RawRunOutput returns the encoded bytes of the run artifact stored
// under key, validated end to end (checksum intact, run section
// present), for streaming to another process. It deliberately bypasses
// the hit/miss counters and the LRU touch: it re-reads an entry the
// caller just produced, not a cache lookup in its own right.
func (c *Cache) RawRunOutput(key string) ([]byte, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	f, err := Decode(data)
	if err != nil || f.Run == nil {
		return nil, false
	}
	return data, true
}

// StoreRawRunOutput verifies data as a complete artifact carrying a run
// section — the CRC-checked decode is the trust boundary for bytes that
// crossed a network — and persists it under key with the usual
// crash-safe write. Unlike the in-process store path, failures surface:
// the caller streamed these bytes precisely because it cannot recompute
// them locally without paying the run again.
func (c *Cache) StoreRawRunOutput(key string, data []byte) error {
	f, err := Decode(data)
	if err != nil {
		return fmt.Errorf("artifact: streamed entry: %w", err)
	}
	if f.Run == nil {
		return fmt.Errorf("artifact: streamed entry carries no run section")
	}
	if err := writeAtomic(c.dir, c.path(key), data); err != nil {
		return fmt.Errorf("artifact: store streamed entry: %w", err)
	}
	c.stores.Add(1)
	c.bytesStored.Add(uint64(len(data)))
	c.evict()
	return nil
}

// encodeHint is store's initial encode buffer: a run output without
// resident lines fits (about 200 bytes). The large sections — a
// recording's line pool and events, a page image, a snapshot's resident
// lines — grow the buffer to their own size as they append.
const encodeHint = 512

func (c *Cache) store(key string, f *File) {
	data := Encode(make([]byte, 0, encodeHint), f)
	if err := writeAtomic(c.dir, c.path(key), data); err != nil {
		return
	}
	c.stores.Add(1)
	c.bytesStored.Add(uint64(len(data)))
	c.evict()
}

// writeAtomic writes data to path via a same-directory temp file + rename.
func writeAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadOrRecord returns the recording under key, loading it from disk when
// present and otherwise computing it with record and persisting the
// result. Concurrent callers across processes coalesce through a lock
// file: one records while the rest poll for its artifact, breaking the
// lock only when it looks abandoned. hit reports whether the recording
// came from disk.
func (c *Cache) LoadOrRecord(key string, record func() *sim.Recorded) (rec *sim.Recorded, hit bool) {
	rec, hit, _ = loadOrCompute(c, key, (*Cache).loadRecorded,
		func() (*sim.Recorded, error) { return record(), nil },
		(*Cache).StoreRecorded)
	return rec, hit
}

// LoadOrRunOutput returns the run snapshot under key, computing and
// persisting it on a miss under the same cross-process singleflight as
// LoadOrRecord. Unlike recording, a run can fail (the compute closure
// surfaces replay errors); on error nothing is stored and the lock is
// released so another process can try.
func (c *Cache) LoadOrRunOutput(key string, compute func() (*RunOutput, error)) (*RunOutput, bool, error) {
	return loadOrCompute(c, key, (*Cache).loadRun, compute, (*Cache).StoreRunOutput)
}

// loadOrCompute is the cross-process singleflight shared by LoadOrRecord
// and LoadOrRunOutput: probe, then race for the key's lock file; the
// winner re-probes (another process may have stored meanwhile), computes,
// and persists; losers poll for the winner's artifact, breaking the lock
// only when it looks abandoned (crashed writer) and falling back to
// compute-without-persist when the holder outlives lockWait. Exactly one
// hit or miss is counted per call.
func loadOrCompute[T any](c *Cache, key string,
	load func(*Cache, string) (T, bool),
	compute func() (T, error),
	persist func(*Cache, string, T)) (v T, hit bool, err error) {
	if v, ok := load(c, key); ok {
		return v, true, nil
	}
	deadline := time.Now().Add(c.lockWait)
	for {
		lf, lerr := os.OpenFile(c.lock(key), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if lerr == nil {
			// Stamp the lock with this host, this PID and a random
			// token. Observers fold the stamp into the lock's identity,
			// so a lock removed and immediately recreated by a new
			// holder can never inherit an old observation window — even
			// on filesystems whose timestamp granularity gives both
			// incarnations the same mtime — and a waiter on this host
			// breaks the lock at once if this process dies holding it.
			// A failed read or write leaves a zero token or an empty
			// stamp, which waiters treat as a live holder.
			var tok [16]byte
			_, _ = rand.Read(tok[:])
			fmt.Fprintf(lf, "%s %d %x\n", c.host, os.Getpid(), tok)
			lf.Close()
			defer os.Remove(c.lock(key))
			// Another process may have finished while we raced for the
			// lock; its artifact is fresher than anything we'd recompute.
			if v, ok := load(c, key); ok {
				return v, true, nil
			}
			c.misses.Add(1)
			if v, err = compute(); err != nil {
				return v, false, err
			}
			persist(c, key, v)
			return v, false, nil
		}
		// Lock held: wait for the holder's artifact instead of
		// duplicating its work.
		if c.lockLooksStale(c.lock(key)) {
			os.Remove(c.lock(key)) // abandoned by a crashed writer
			c.lockSeen.Delete(c.lock(key))
			continue
		}
		if time.Now().After(deadline) {
			// The holder is stuck or much slower than us. Computing
			// without persisting keeps this process correct and leaves
			// the store to whoever holds the lock.
			c.misses.Add(1)
			v, err = compute()
			return v, false, err
		}
		time.Sleep(25 * time.Millisecond)
		if v, ok := load(c, key); ok {
			return v, true, nil
		}
	}
}

// lockObservation is one lock file's local sighting: when this process
// first saw it (monotonic-bearing local time), the mtime it had then,
// and the random token its creator wrote into it. mtime and token
// together are the lock's identity — the token distinguishes two lock
// incarnations that coarse filesystem timestamps give the same mtime.
type lockObservation struct {
	firstSeen time.Time
	mtime     time.Time
	token     string
}

// lockLooksStale reports whether the lock at path names a holder on this
// host that has exited, or has been observed by this process, unchanged,
// for longer than lockStale. The clock is the local monotonic one: on a
// shared filesystem the lock's mtime was written by another machine's
// clock, so `time.Since(mtime)` would break a live writer's lock when
// that clock runs behind ours — or never break a crashed writer's lock
// when it runs ahead. Any identity change — an
// mtime change (the holder stamping progress) or a token change (the
// lock removed and recreated by a new holder, even at an identical
// mtime) — restarts the observation window; neither is ever compared
// against our wall clock. The cost of skew immunity is that staleness
// accrues from first local sight rather than from the crash itself —
// bounded, and always the safe direction (waiting longer, never
// breaking a live lock early).
func (c *Cache) lockLooksStale(path string) bool {
	st, err := os.Stat(path)
	if err != nil {
		// Gone (or unreadable): nothing to break; forget the sighting so
		// a future lock at this path starts a fresh window.
		c.lockSeen.Delete(path)
		return false
	}
	// Read errors (the lock vanished between stat and read) yield an
	// empty token, which simply restarts the window — the safe direction.
	tok, _ := os.ReadFile(path)
	if c.ownerGone(tok) {
		return true
	}
	now := time.Now()
	if v, ok := c.lockSeen.Load(path); ok {
		obs := v.(lockObservation)
		if obs.mtime.Equal(st.ModTime()) && obs.token == string(tok) {
			return now.Sub(obs.firstSeen) > c.lockStale
		}
	}
	c.lockSeen.Store(path, lockObservation{firstSeen: now, mtime: st.ModTime(), token: string(tok)})
	return false
}

// ownerGone reports whether a lock stamp names a holder on this host
// whose process no longer exists: signal 0 reaches no process (ESRCH). A
// PID the system has since reused reads as live, the safe direction.
// Stamps from other hosts, and empty or partial ones (a holder that has
// created its lock but not yet written it), never read as gone.
func (c *Cache) ownerGone(stamp []byte) bool {
	f := strings.Fields(string(stamp))
	if len(f) != 3 || c.host == "" || f[0] != c.host {
		return false
	}
	pid, err := strconv.Atoi(f[1])
	if err != nil || pid <= 0 {
		return false
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	defer p.Release()
	return errors.Is(p.Signal(syscall.Signal(0)), os.ErrProcessDone)
}

// evict removes least-recently-used artifacts (oldest mtime first) until
// the directory fits the byte budget. Lock and temp files are ignored.
func (c *Cache) evict() {
	if c.maxBytes <= 0 {
		return
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".thsa" {
			return nil
		}
		if info, err := d.Info(); err == nil {
			entries = append(entries, entry{path, info.Size(), info.ModTime()})
			total += info.Size()
		}
		return nil
	})
	if total <= c.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			c.evictions.Add(1)
		}
	}
}
