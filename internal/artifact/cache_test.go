package artifact

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func testCache(t *testing.T, maxBytes int64) *Cache {
	t.Helper()
	c, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheStoreLoad(t *testing.T) {
	c := testCache(t, 0)
	rec := synthRecorded(1, 400)
	if _, ok := c.LoadRecorded("k1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.StoreRecorded("k1", rec)
	got, ok := c.LoadRecorded("k1")
	if !ok {
		t.Fatal("miss after store")
	}
	if !RecordedEqual(got, rec) {
		t.Fatal("loaded recording differs")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesStored == 0 || st.BytesLoaded != st.BytesStored {
		t.Fatalf("byte accounting %+v", st)
	}
}

func TestCacheKeysIsolate(t *testing.T) {
	c := testCache(t, 0)
	a, b := synthRecorded(1, 30), synthRecorded(2, 30)
	c.StoreRecorded("a", a)
	c.StoreRecorded("b", b)
	got, ok := c.LoadRecorded("a")
	if !ok || !RecordedEqual(got, a) {
		t.Fatal("key a")
	}
	got, ok = c.LoadRecorded("b")
	if !ok || !RecordedEqual(got, b) {
		t.Fatal("key b")
	}
}

// TestCacheCorruptionRegenerates: a corrupt entry is a miss, the file is
// removed, and a subsequent store overwrites it cleanly.
func TestCacheCorruptionRegenerates(t *testing.T) {
	c := testCache(t, 0)
	rec := synthRecorded(3, 100)
	c.StoreRecorded("k", rec)
	path := c.path("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadRecorded("k"); ok {
		t.Fatal("corrupt entry returned as hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count %d", st.Corrupt)
	}
	calls := 0
	got, hit := c.LoadOrRecord("k", func() *sim.Recorded { calls++; return rec })
	if hit || calls != 1 {
		t.Fatalf("hit=%v calls=%d after corruption", hit, calls)
	}
	if !RecordedEqual(got, rec) {
		t.Fatal("regenerated recording differs")
	}
	if got, ok := c.LoadRecorded("k"); !ok || !RecordedEqual(got, rec) {
		t.Fatal("regeneration did not overwrite the corrupt entry")
	}
}

// TestCacheVersionSkewIsMiss: an artifact written by a different codec
// version is silently treated as absent.
func TestCacheVersionSkewIsMiss(t *testing.T) {
	c := testCache(t, 0)
	c.StoreRecorded("k", synthRecorded(4, 50))
	path := c.path("k")
	data, _ := os.ReadFile(path)
	data[4] = byte(Version + 7)
	patchCRC(data)
	os.WriteFile(path, data, 0o644)
	if _, ok := c.LoadRecorded("k"); ok {
		t.Fatal("version-skewed entry returned as hit")
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Fatal("version skew counted as corruption")
	}
}

func TestCacheEviction(t *testing.T) {
	c := testCache(t, 0)
	rec := synthRecorded(5, 200)
	c.StoreRecorded("old", rec)
	size, _ := os.Stat(c.path("old"))
	// Budget for two entries, not three.
	c.maxBytes = size.Size()*2 + size.Size()/2
	past := time.Now().Add(-time.Hour)
	os.Chtimes(c.path("old"), past, past)
	c.StoreRecorded("mid", rec)
	c.StoreRecorded("new", rec)
	if _, err := os.Stat(c.path("old")); !os.IsNotExist(err) {
		t.Fatal("oldest entry not evicted")
	}
	for _, k := range []string{"mid", "new"} {
		if _, err := os.Stat(c.path(k)); err != nil {
			t.Fatalf("entry %q evicted: %v", k, err)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d", st.Evictions)
	}
	// A hit freshens recency: touch "mid", store another entry, and the
	// untouched "new" goes first.
	if _, ok := c.LoadRecorded("mid"); !ok {
		t.Fatal("mid missing")
	}
	old := time.Now().Add(-30 * time.Minute)
	os.Chtimes(c.path("new"), old, old)
	c.StoreRecorded("newer", rec)
	if _, err := os.Stat(c.path("new")); !os.IsNotExist(err) {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if _, err := os.Stat(c.path("mid")); err != nil {
		t.Fatal("recently hit entry evicted")
	}
}

// TestCacheConcurrentLoadOrRecord: many goroutines racing on one cold key
// all get equal recordings and the artifact lands intact. (In-process
// callers normally coalesce in harness; this exercises the lock-file path
// the way separate processes would.)
func TestCacheConcurrentLoadOrRecord(t *testing.T) {
	c := testCache(t, 0)
	rec := synthRecorded(6, 300)
	var calls atomic.Int32
	var wg sync.WaitGroup
	out := make([]*sim.Recorded, 8)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _ := c.LoadOrRecord("k", func() *sim.Recorded {
				calls.Add(1)
				time.Sleep(10 * time.Millisecond)
				return rec
			})
			out[i] = got
		}(i)
	}
	wg.Wait()
	for i, got := range out {
		if got == nil || !RecordedEqual(got, rec) {
			t.Fatalf("caller %d got a wrong recording", i)
		}
	}
	// The lock serializes: at most one caller records while holding it;
	// late arrivals load its artifact.
	if n := calls.Load(); n < 1 || n > 2 {
		t.Fatalf("record ran %d times", n)
	}
	if got, ok := c.LoadRecorded("k"); !ok || !RecordedEqual(got, rec) {
		t.Fatal("artifact torn or missing after concurrent writers")
	}
	ents, _ := os.ReadDir(c.dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") || strings.HasSuffix(e.Name(), ".lock") {
			t.Fatalf("stray file %q left behind", e.Name())
		}
	}
}

// TestCacheStaleLockBroken: a lock file abandoned by a crashed writer is
// broken after lockStale and the caller proceeds to record.
func TestCacheStaleLockBroken(t *testing.T) {
	c := testCache(t, 0)
	c.lockStale = 50 * time.Millisecond
	c.lockWait = 5 * time.Second
	if err := os.WriteFile(c.lock("k"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	os.Chtimes(c.lock("k"), old, old)
	rec := synthRecorded(7, 40)
	start := time.Now()
	got, hit := c.LoadOrRecord("k", func() *sim.Recorded { return rec })
	if hit || !RecordedEqual(got, rec) {
		t.Fatal("stale lock not broken")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("stale-lock break waited for the full deadline")
	}
	if _, ok := c.LoadRecorded("k"); !ok {
		t.Fatal("artifact not stored after breaking the stale lock")
	}
}

// TestCacheStaleLockFutureMtime: a crashed writer on a machine whose
// clock ran ahead leaves a lock whose mtime is in our future. Raw
// mtime-age staleness (time.Since(mtime) > lockStale) would never fire
// on it; the local monotonic observation window breaks it all the same.
func TestCacheStaleLockFutureMtime(t *testing.T) {
	c := testCache(t, 0)
	c.lockStale = 50 * time.Millisecond
	c.lockWait = 5 * time.Second
	if err := os.WriteFile(c.lock("k"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Hour)
	os.Chtimes(c.lock("k"), future, future)
	rec := synthRecorded(12, 40)
	start := time.Now()
	got, hit := c.LoadOrRecord("k", func() *sim.Recorded { return rec })
	if hit || !RecordedEqual(got, rec) {
		t.Fatal("future-mtime stale lock not broken")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("future-mtime stale-lock break waited for the full deadline")
	}
	if _, ok := c.LoadRecorded("k"); !ok {
		t.Fatal("artifact not stored after breaking the future-mtime lock")
	}
}

// stampLock writes a lock for key as a holder on host with pid would.
func stampLock(t *testing.T, c *Cache, key, host string, pid int) {
	t.Helper()
	if err := os.WriteFile(c.lock(key), []byte(fmt.Sprintf("%s %d 00112233445566778899aabbccddeeff\n", host, pid)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDeadOwnerLockBrokenAtOnce: a worker killed with kill -9 leaves
// its lock behind. When the lock names this host and a process that has
// exited, the waiter breaks it on sight instead of waiting out lockWait
// (or the monotonic lockStale window) on every cell that worker held.
func TestCacheDeadOwnerLockBrokenAtOnce(t *testing.T) {
	c := testCache(t, 0)
	c.lockWait = 30 * time.Second
	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	host, err := os.Hostname()
	if err != nil {
		t.Skip("no host name:", err)
	}
	stampLock(t, c, "k", host, child.Process.Pid)
	rec := synthRecorded(21, 40)
	start := time.Now()
	got, hit := c.LoadOrRecord("k", func() *sim.Recorded { return rec })
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("dead owner's lock delayed LoadOrRecord by %v", waited)
	}
	if hit || !RecordedEqual(got, rec) {
		t.Fatal("dead owner's lock not broken")
	}
	if _, ok := c.LoadRecorded("k"); !ok {
		t.Fatal("artifact not stored after breaking the dead owner's lock")
	}
}

// TestCacheLiveOwnerLockHonoured: a lock naming this host and a live
// process (this one) is waited on until lockWait, then the waiter
// computes without persisting; so is a lock from another host, whose
// PIDs mean nothing here.
func TestCacheLiveOwnerLockHonoured(t *testing.T) {
	host, err := os.Hostname()
	if err != nil {
		t.Skip("no host name:", err)
	}
	for _, owner := range []struct {
		host string
		pid  int
	}{{host, os.Getpid()}, {host + "-elsewhere", 1 << 30}} {
		c := testCache(t, 0)
		c.lockWait = 150 * time.Millisecond
		stampLock(t, c, "k", owner.host, owner.pid)
		rec := synthRecorded(22, 40)
		start := time.Now()
		got, hit := c.LoadOrRecord("k", func() *sim.Recorded { return rec })
		if hit || !RecordedEqual(got, rec) {
			t.Fatalf("owner %s/%d: waiter did not fall back to compute-without-persist", owner.host, owner.pid)
		}
		if waited := time.Since(start); waited < c.lockWait {
			t.Fatalf("owner %s/%d: live lock broken after %v", owner.host, owner.pid, waited)
		}
		if _, err := os.Stat(c.lock("k")); err != nil {
			t.Fatalf("owner %s/%d: live lock removed", owner.host, owner.pid)
		}
		if _, ok := c.LoadRecorded("k"); ok {
			t.Fatalf("owner %s/%d: waiter persisted despite not holding the lock", owner.host, owner.pid)
		}
	}
}

// TestCacheRecreatedLockStartsFreshWindow: a lock removed and
// immediately recreated by a new live holder can land on the same mtime
// when the filesystem's timestamp granularity is coarse. Identity by
// (path, mtime) alone would let the new lock inherit the old
// observation window and be broken early; the random token the creator
// writes distinguishes the two incarnations, so the window restarts.
func TestCacheRecreatedLockStartsFreshWindow(t *testing.T) {
	c := testCache(t, 0)
	c.lockStale = 60 * time.Millisecond
	lock := c.lock("k")
	// A coarse-granularity mtime both incarnations will share.
	mt := time.Now().Add(-time.Minute).Truncate(time.Second)
	if err := os.WriteFile(lock, []byte("holder-1-token"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Chtimes(lock, mt, mt)
	if c.lockLooksStale(lock) {
		t.Fatal("first sighting reported stale")
	}
	time.Sleep(80 * time.Millisecond)
	if !c.lockLooksStale(lock) {
		t.Fatal("unchanged lock not stale after the observation window")
	}
	// The old holder releases; a new live holder recreates the lock with
	// fresh token content but — coarse timestamps — the identical mtime.
	if err := os.WriteFile(lock, []byte("holder-2-token"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Chtimes(lock, mt, mt)
	if c.lockLooksStale(lock) {
		t.Fatal("recreated lock inherited the previous observation window")
	}
	time.Sleep(80 * time.Millisecond)
	if !c.lockLooksStale(lock) {
		t.Fatal("recreated lock never went stale under its fresh window")
	}
}

// TestCacheLiveLockPastMtimeNotBroken: a live writer on a machine whose
// clock runs behind holds a lock whose mtime is deep in our past. Raw
// mtime-age staleness would break it immediately and let two writers
// race; the monotonic window instead requires the lock to sit unchanged
// under local observation, so a holder stamping progress (mtime changes)
// is never broken — the waiter degrades to compute-without-persist at
// lockWait exactly as for any slow holder.
func TestCacheLiveLockPastMtimeNotBroken(t *testing.T) {
	c := testCache(t, 0)
	c.lockStale = 150 * time.Millisecond
	c.lockWait = 500 * time.Millisecond
	if err := os.WriteFile(c.lock("k"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The holder's skewed clock: every stamp lands a minute in our past,
	// yet each one changes the mtime, restarting the observation window.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		n := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				n++
				past := time.Now().Add(-time.Minute + time.Duration(n)*time.Millisecond)
				os.Chtimes(c.lock("k"), past, past)
			}
		}
	}()
	rec := synthRecorded(13, 40)
	got, hit := c.LoadOrRecord("k", func() *sim.Recorded { return rec })
	close(stop)
	<-done
	if hit || !RecordedEqual(got, rec) {
		t.Fatal("waiter did not fall back to compute-without-persist")
	}
	if _, err := os.Stat(c.lock("k")); err != nil {
		t.Fatal("live lock with skewed-past mtime was broken")
	}
	if _, ok := c.LoadRecorded("k"); ok {
		t.Fatal("timed-out waiter persisted despite not holding the lock")
	}
	if st := c.Stats(); st.Stores != 0 {
		t.Fatalf("stores = %d, want 0 (compute-without-persist)", st.Stores)
	}
}

// TestCacheLockTimeout: when a live writer never finishes within
// lockWait, the caller computes without persisting and does not remove
// the holder's lock.
func TestCacheLockTimeout(t *testing.T) {
	c := testCache(t, 0)
	c.lockWait = 60 * time.Millisecond
	c.lockStale = time.Hour
	if err := os.WriteFile(c.lock("k"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := synthRecorded(8, 40)
	got, hit := c.LoadOrRecord("k", func() *sim.Recorded { return rec })
	if hit || !RecordedEqual(got, rec) {
		t.Fatal("timeout path did not compute")
	}
	if _, err := os.Stat(c.lock("k")); err != nil {
		t.Fatal("live lock removed by a timed-out waiter")
	}
	if _, ok := c.LoadRecorded("k"); ok {
		t.Fatal("timed-out waiter persisted despite not holding the lock")
	}
}

// TestCacheWaiterAdoptsWritersArtifact: a waiter blocked on the lock
// picks up the holder's artifact as a hit once it lands.
func TestCacheWaiterAdoptsWritersArtifact(t *testing.T) {
	c := testCache(t, 0)
	c.lockWait = 5 * time.Second
	rec := synthRecorded(9, 40)
	if err := os.WriteFile(c.lock("k"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		c.StoreRecorded("k", rec)
		os.Remove(c.lock("k"))
	}()
	got, hit := c.LoadOrRecord("k", func() *sim.Recorded {
		t.Error("waiter recorded instead of adopting")
		return rec
	})
	if !hit || !RecordedEqual(got, rec) {
		t.Fatal("waiter did not adopt the writer's artifact")
	}
}

// TestWriteAtomicLeavesNoTemp: writeAtomic leaves no temp file behind,
// whether the rename succeeds or fails. Renaming a file onto a non-empty
// directory fails on every platform Go supports.
func TestWriteAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := writeAtomic(dir, filepath.Join(dir, "out"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	busy := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(busy, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(dir, busy, []byte("y")); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 || ents[0].Name() != "busy" || ents[1].Name() != "out" {
		t.Fatalf("directory contents: %v", ents)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "out")); err != nil || string(got) != "x" {
		t.Fatalf("published entry reads %q, %v", got, err)
	}
}

// TestArtifactNeverSyncs: stores publish by rename alone (see Cache's
// crash contract), so no file in the package names a sync call (Sync,
// Fsync, Syncfs and the like).
func TestArtifactNeverSyncs(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil || len(names) == 0 {
		t.Fatalf("package sources: %v, %v", names, err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && strings.Contains(strings.ToLower(sel.Sel.Name), "sync") {
				t.Errorf("%s: call to %s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// tears are the shapes a machine crash can leave under an entry's final
// name when the rename reached the disk before the data did.
var tears = []struct {
	name string
	tear func([]byte) []byte
}{
	{"empty", func(b []byte) []byte { return b[:0] }},
	{"header-only", func(b []byte) []byte { return b[:headerLen] }},
	{"half", func(b []byte) []byte { return b[:len(b)/2] }},
	{"no-footer", func(b []byte) []byte { return b[:len(b)-footerLen] }},
	{"zero-tail", func(b []byte) []byte { clear(b[len(b)/2:]); return b }},
}

// TestCacheTornEntryIsMiss: a torn entry under its final name, of either
// kind and in every tear shape, is a miss that is counted as corrupt and
// removed; LoadOrRecord and LoadOrRunOutput meeting one recompute and
// re-store the entry, so the next load hits.
func TestCacheTornEntryIsMiss(t *testing.T) {
	rec := synthRecorded(31, 400)
	run := synthRunOutput(3)
	kinds := []struct {
		name string
		// load loads key and reports a hit that equals the stored value.
		load func(c *Cache) bool
		// loadOrCompute runs the kind's singleflight with a compute that
		// counts its calls.
		loadOrCompute func(c *Cache, calls *int) bool
		store         func(c *Cache)
	}{
		{
			name: "recorded",
			load: func(c *Cache) bool {
				got, ok := c.LoadRecorded("k")
				return ok && RecordedEqual(got, rec)
			},
			loadOrCompute: func(c *Cache, calls *int) bool {
				got, hit := c.LoadOrRecord("k", func() *sim.Recorded { *calls++; return rec })
				return hit || !RecordedEqual(got, rec)
			},
			store: func(c *Cache) { c.StoreRecorded("k", rec) },
		},
		{
			name: "runoutput",
			load: func(c *Cache) bool {
				got, ok := c.LoadRunOutput("k")
				return ok && RunOutputEqual(got, run)
			},
			loadOrCompute: func(c *Cache, calls *int) bool {
				got, hit, err := c.LoadOrRunOutput("k", func() (*RunOutput, error) { *calls++; return run, nil })
				return hit || err != nil || !RunOutputEqual(got, run)
			},
			store: func(c *Cache) { c.StoreRunOutput("k", run) },
		},
	}
	for _, k := range kinds {
		for _, tc := range tears {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				c := testCache(t, 0)
				k.store(c)
				whole, err := os.ReadFile(c.path("k"))
				if err != nil {
					t.Fatal(err)
				}
				torn := tc.tear(bytes.Clone(whole))
				plant := func() {
					if err := os.WriteFile(c.path("k"), torn, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				plant()
				if k.load(c) {
					t.Fatal("torn entry returned as hit")
				}
				if _, err := os.Stat(c.path("k")); !os.IsNotExist(err) {
					t.Fatal("torn entry not removed")
				}
				if st := c.Stats(); st.Corrupt != 1 || st.Misses != 1 {
					t.Fatalf("after the load: %+v", st)
				}
				plant()
				calls := 0
				if k.loadOrCompute(c, &calls) || calls != 1 {
					t.Fatalf("singleflight over a torn entry: wrong result or %d computes", calls)
				}
				if st := c.Stats(); st.Corrupt != 2 || st.Stores != 2 {
					t.Fatalf("after the recompute: %+v", st)
				}
				if got, _ := os.ReadFile(c.path("k")); !bytes.Equal(got, whole) {
					t.Fatal("recompute did not re-store the whole entry")
				}
				if !k.load(c) {
					t.Fatal("re-stored entry missed")
				}
			})
		}
	}
}
