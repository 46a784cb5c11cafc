package netq

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: i, Profile: fmt.Sprintf("p%d", i), Design: "D", Accesses: 100}
	}
	return tasks
}

func newTestServer(t *testing.T, tasks []Task, opt ServerOptions) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", tasks, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func dialTest(t *testing.T, srv *Server, opt ClientOptions) *Client {
	t.Helper()
	if opt.IOTimeout == 0 {
		opt.IOTimeout = 5 * time.Second
	}
	cli, err := Dial(srv.Addr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli
}

// FuzzFrameRoundTrip: any payload that fits MaxFrame survives the
// write/read cycle byte-for-byte, including empty and binary payloads.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{})
	f.Add([]byte(`{"type":"claim"}`))
	f.Add([]byte{0, 1, 2, 0xFF, 0xFE})
	f.Add(bytes.Repeat([]byte{0xAB}, 1<<16))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip: wrote %d bytes, read %d different bytes", len(payload), len(got))
		}
	})
}

// TestFrameLengthBound: an oversized length prefix is rejected before any
// allocation; an oversized payload is refused at write time.
func TestFrameLengthBound(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // ~4GiB claimed
	if _, err := ReadFrame(bufio.NewReader(&hdr)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	big := make([]byte, MaxFrame+1)
	if err := WriteFrame(&bytes.Buffer{}, big); err == nil {
		t.Fatal("oversized payload written")
	}
}

// TestVersionSkewRejectedByServer: a worker speaking another protocol
// version gets an explicit reject frame, not a silent misparse.
func TestVersionSkewRejectedByServer(t *testing.T) {
	srv := newTestServer(t, testTasks(1), ServerOptions{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, &message{Type: msgHello, Proto: ProtoVersion + 1}); err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != msgReject {
		t.Fatalf("reply = %q, want %q", m.Type, msgReject)
	}
	if !strings.Contains(m.Err, "version skew") {
		t.Fatalf("reject reason %q does not name the skew", m.Err)
	}
}

// TestVersionSkewPermanentForClient: a rejected handshake surfaces from
// Dial as a version-skew error and is never retried (a retry loop against
// an incompatible coordinator would spin forever).
func TestVersionSkewPermanentForClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			readMsg(bufio.NewReader(conn))
			writeMsg(conn, &message{Type: msgReject, Err: "netq: protocol version skew: test"})
			conn.Close()
		}
	}()
	_, err = Dial(ln.Addr().String(), ClientOptions{IOTimeout: 2 * time.Second})
	if !errors.Is(err, errVersionSkew) {
		t.Fatalf("Dial error = %v, want version skew", err)
	}
}

// TestClaimDrainFinish: the plain lifecycle — every task claimed exactly
// once, finished, and the queue reports drained to late claimants.
func TestClaimDrainFinish(t *testing.T) {
	srv := newTestServer(t, testTasks(3), ServerOptions{})
	cli := dialTest(t, srv, ClientOptions{})
	seen := map[int]bool{}
	for {
		task, ok, err := cli.Claim()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[task.ID] {
			t.Fatalf("task %d claimed twice", task.ID)
		}
		seen[task.ID] = true
		if err := cli.Finish(task, Outcome{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("claimed %d tasks, want 3", len(seen))
	}
	p := srv.Progress()
	if p.Done != 3 || p.Failed != 0 || !p.Terminal() {
		t.Fatalf("progress = %+v", p)
	}
}

// TestFailedOutcomeRecorded: a task error travels to the coordinator and
// lands in the failure list with its task ID.
func TestFailedOutcomeRecorded(t *testing.T) {
	srv := newTestServer(t, testTasks(1), ServerOptions{})
	cli := dialTest(t, srv, ClientOptions{})
	task, ok, err := cli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := cli.Finish(task, Outcome{Err: errors.New("boom")}); err != nil {
		t.Fatal(err)
	}
	sum := srv.Wait(time.Second, nil)
	if sum.Failed != 1 || len(sum.Failures) != 1 || !strings.Contains(sum.Failures[0], "boom") {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestLeaseExpiryExactlyOnce is the reclaim race: worker A claims and
// goes silent, the lease expires and worker B re-claims; both eventually
// finish, and completion stays exactly-once — one done task, the late
// duplicate acknowledged and dropped.
func TestLeaseExpiryExactlyOnce(t *testing.T) {
	srv := newTestServer(t, testTasks(1), ServerOptions{Lease: 100 * time.Millisecond})
	a := dialTest(t, srv, ClientOptions{})
	b := dialTest(t, srv, ClientOptions{})

	taskA, ok, err := a.Claim()
	if err != nil || !ok {
		t.Fatalf("claim A: ok=%v err=%v", ok, err)
	}
	// A goes silent (no heartbeat): the lease expires and the scanner
	// re-queues the task for B.
	deadline := time.Now().Add(5 * time.Second)
	var taskB Task
	for {
		m, err := b.do(&message{Type: msgClaim}, true)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == msgTask {
			taskB = *m.Task
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-queued")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if taskB.ID != taskA.ID {
		t.Fatalf("B claimed task %d, want %d", taskB.ID, taskA.ID)
	}
	// Both finish: first one in wins, the other is acked as a duplicate.
	if err := b.Finish(taskB, Outcome{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Finish(taskA, Outcome{}); err != nil {
		t.Fatal(err)
	}
	p := srv.Progress()
	if p.Done != 1 || p.Failed != 0 {
		t.Fatalf("progress = %+v, want exactly one done", p)
	}
	if p.Requeues == 0 || p.DupResults == 0 {
		t.Fatalf("progress = %+v, want a requeue and a duplicate recorded", p)
	}
}

// TestHeartbeatKeepsLease: a slow worker that heartbeats holds its lease
// well past the lease duration.
func TestHeartbeatKeepsLease(t *testing.T) {
	srv := newTestServer(t, testTasks(1), ServerOptions{Lease: 100 * time.Millisecond})
	cli := dialTest(t, srv, ClientOptions{})
	task, ok, err := cli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	for i := 0; i < 8; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := cli.Heartbeat(task); err != nil {
			t.Fatal(err)
		}
	}
	if p := srv.Progress(); p.Requeues != 0 || p.Leased != 1 {
		t.Fatalf("progress = %+v, heartbeated lease was re-queued", p)
	}
	if err := cli.Finish(task, Outcome{}); err != nil {
		t.Fatal(err)
	}
}

// TestConnDropRequeuesImmediately is the kill-mid-task fault injection:
// a worker whose connection dies loses its leases to the queue without
// waiting for lease expiry, and a survivor completes them.
func TestConnDropRequeuesImmediately(t *testing.T) {
	srv := newTestServer(t, testTasks(2), ServerOptions{Lease: time.Hour})
	victim := dialTest(t, srv, ClientOptions{})
	if _, ok, err := victim.Claim(); err != nil || !ok {
		t.Fatalf("victim claim failed: ok=%v err=%v", ok, err)
	}
	victim.Close() // kill -9: the TCP reset is the death signal

	deadline := time.Now().Add(5 * time.Second)
	for srv.Progress().Requeues == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dropped connection's lease never re-queued")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The lease duration (an hour) clearly did not gate the requeue.
	survivor := dialTest(t, srv, ClientOptions{})
	done := 0
	for {
		task, ok, err := survivor.Claim()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := survivor.Finish(task, Outcome{}); err != nil {
			t.Fatal(err)
		}
		done++
	}
	if done != 2 {
		t.Fatalf("survivor finished %d tasks, want both", done)
	}
	if p := srv.Progress(); !p.Terminal() || p.Done != 2 {
		t.Fatalf("progress = %+v", p)
	}
}

// TestWorkerReconnect: a worker survives the coordinator dropping its
// connection mid-stream — the next operation redials transparently.
func TestWorkerReconnect(t *testing.T) {
	srv := newTestServer(t, testTasks(2), ServerOptions{})
	cli := dialTest(t, srv, ClientOptions{MaxAttempts: 5})
	task, ok, err := cli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	// Sever the transport under the client; Finish must redial. The
	// server re-queued the lease on the drop, so the ack is a duplicate
	// path only if another claim raced — here it simply records done.
	cli.mu.Lock()
	cli.conn.Close()
	cli.mu.Unlock()
	if err := cli.Finish(task, Outcome{}); err != nil {
		t.Fatal(err)
	}
	if p := srv.Progress(); p.Done != 1 {
		t.Fatalf("progress = %+v after reconnect finish", p)
	}
}

// TestSharedDirProbe: a worker whose cache directory is the
// coordinator's sees the session token and negotiates key-only results;
// a worker with its own directory must stream artifacts.
func TestSharedDirProbe(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testTasks(1), ServerOptions{CacheDir: dir})
	shared := dialTest(t, srv, ClientOptions{CacheDir: dir})
	if !shared.SharedCache() || shared.StreamArtifacts() {
		t.Fatal("same cache dir not detected as shared")
	}
	foreign := dialTest(t, srv, ClientOptions{CacheDir: t.TempDir()})
	if foreign.SharedCache() || !foreign.StreamArtifacts() {
		t.Fatal("distinct cache dir detected as shared")
	}
	noDir := dialTest(t, srv, ClientOptions{})
	if noDir.SharedCache() {
		t.Fatal("empty cache dir detected as shared")
	}
	// The token file is scoped to the session and removed at Close.
	matches, _ := filepath.Glob(filepath.Join(dir, ".netq-session-*"))
	if len(matches) != 1 {
		t.Fatalf("session token files = %v, want exactly one", matches)
	}
	srv.Close()
	if _, err := os.Stat(matches[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("session token file survived Close")
	}
}

// TestArtifactStreaming: a streamed result reaches StoreArtifact keyed
// and byte-identical, and the task completes; a coordinator without a
// store hook fails the task instead of silently dropping the bytes.
func TestArtifactStreaming(t *testing.T) {
	var mu sync.Mutex
	stored := map[string][]byte{}
	srv := newTestServer(t, testTasks(1), ServerOptions{
		StoreArtifact: func(key string, data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			stored[key] = append([]byte(nil), data...)
			return nil
		},
	})
	cli := dialTest(t, srv, ClientOptions{})
	task, ok, err := cli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	payload := bytes.Repeat([]byte{0x42, 0x00, 0x7F}, 1000)
	if err := cli.Finish(task, Outcome{Key: "ab12cd34", Artifact: payload}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := stored["ab12cd34"]
	mu.Unlock()
	if !bytes.Equal(got, payload) {
		t.Fatalf("stored %d bytes, want the %d-byte payload intact", len(got), len(payload))
	}
	if p := srv.Progress(); p.Done != 1 {
		t.Fatalf("progress = %+v", p)
	}

	refuser := newTestServer(t, testTasks(1), ServerOptions{})
	rcli := dialTest(t, refuser, ClientOptions{})
	rtask, ok, err := rcli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := rcli.Finish(rtask, Outcome{Key: "ab", Artifact: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	sum := refuser.Wait(time.Second, nil)
	if sum.Failed != 1 {
		t.Fatalf("summary = %+v, want the streamed result refused as a failure", sum)
	}
}

// TestStoreKeyDerivedCoordinatorSide: with TaskKey configured the
// coordinator names streamed artifacts from its own task table; the
// worker-supplied wire key — here a path-traversal attempt — is ignored.
func TestStoreKeyDerivedCoordinatorSide(t *testing.T) {
	var mu sync.Mutex
	stored := map[string][]byte{}
	srv := newTestServer(t, testTasks(1), ServerOptions{
		StoreArtifact: func(key string, data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			stored[key] = append([]byte(nil), data...)
			return nil
		},
		TaskKey: func(task Task) (string, error) {
			return fmt.Sprintf("derived-%d", task.ID), nil
		},
	})
	cli := dialTest(t, srv, ClientOptions{})
	task, ok, err := cli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	payload := []byte{0xDE, 0xAD}
	if err := cli.Finish(task, Outcome{Key: "../../etc/poison", Artifact: payload}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(stored["derived-0"], payload) {
		t.Fatalf("stored keys = %v, want the artifact under the derived key", stored)
	}
	if len(stored) != 1 {
		t.Fatalf("stored keys = %v, want exactly the derived key (wire key ignored)", stored)
	}
}

// TestMalformedWireKeyRejected: without TaskKey the wire key is used,
// but only when it has the bare content-hash shape — a traversal path
// never reaches StoreArtifact; the task fails and recomputes in-process.
func TestMalformedWireKeyRejected(t *testing.T) {
	called := false
	srv := newTestServer(t, testTasks(1), ServerOptions{
		StoreArtifact: func(key string, data []byte) error {
			called = true
			return nil
		},
	})
	cli := dialTest(t, srv, ClientOptions{})
	task, ok, err := cli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := cli.Finish(task, Outcome{Key: "../../escape", Artifact: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("StoreArtifact called with a malformed key")
	}
	sum := srv.Wait(time.Second, nil)
	if sum.Failed != 1 || !strings.Contains(sum.Failures[0], "malformed artifact key") {
		t.Fatalf("summary = %+v, want the malformed key refused as a failure", sum)
	}
}

// TestUnknownTaskResultIgnored: a result for a task ID the queue never
// issued must not touch the terminal maps — done/failed sizes drive
// Terminal, so a bogus ID could otherwise end the campaign early.
func TestUnknownTaskResultIgnored(t *testing.T) {
	srv := newTestServer(t, testTasks(2), ServerOptions{})
	cli := dialTest(t, srv, ClientOptions{})
	for _, id := range []int{99, 100} {
		if err := cli.Finish(Task{ID: id}, Outcome{}); err != nil {
			t.Fatal(err)
		}
	}
	if p := srv.Progress(); p.Done != 0 || p.Failed != 0 || p.Terminal() {
		t.Fatalf("progress = %+v after bogus results, want untouched", p)
	}
}

// TestStaleFailureDoesNotPinTask: a failure from a worker whose lease
// was already reclaimed is dropped, so the current holder's later
// success lands as the task's one terminal state instead of being
// dup-dropped against a premature failure.
func TestStaleFailureDoesNotPinTask(t *testing.T) {
	srv := newTestServer(t, testTasks(1), ServerOptions{Lease: 100 * time.Millisecond})
	a := dialTest(t, srv, ClientOptions{})
	b := dialTest(t, srv, ClientOptions{})
	taskA, ok, err := a.Claim()
	if err != nil || !ok {
		t.Fatalf("claim A: ok=%v err=%v", ok, err)
	}
	// A goes silent until the lease expires and B re-claims the task.
	deadline := time.Now().Add(5 * time.Second)
	var taskB Task
	for {
		m, err := b.do(&message{Type: msgClaim}, true)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == msgTask {
			taskB = *m.Task
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-queued")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A's stale failure arrives while B is computing: dropped, not final.
	if err := a.Finish(taskA, Outcome{Err: errors.New("stale boom")}); err != nil {
		t.Fatal(err)
	}
	if p := srv.Progress(); p.Failed != 0 {
		t.Fatalf("progress = %+v, stale failure marked the task failed", p)
	}
	if err := b.Finish(taskB, Outcome{}); err != nil {
		t.Fatal(err)
	}
	if p := srv.Progress(); p.Done != 1 || p.Failed != 0 {
		t.Fatalf("progress = %+v, want the holder's success recorded", p)
	}
}

// TestSuccessOverwritesFailure: the reclaim race in the other order —
// the current holder fails (recorded), then the original worker's
// success arrives. The content-addressed success supersedes the failure
// so the coordinator skips an unnecessary in-process recompute.
func TestSuccessOverwritesFailure(t *testing.T) {
	srv := newTestServer(t, testTasks(1), ServerOptions{Lease: 100 * time.Millisecond})
	a := dialTest(t, srv, ClientOptions{})
	b := dialTest(t, srv, ClientOptions{})
	taskA, ok, err := a.Claim()
	if err != nil || !ok {
		t.Fatalf("claim A: ok=%v err=%v", ok, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var taskB Task
	for {
		m, err := b.do(&message{Type: msgClaim}, true)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == msgTask {
			taskB = *m.Task
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-queued")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// B holds the lease now, so its failure is recorded...
	if err := b.Finish(taskB, Outcome{Err: errors.New("boom")}); err != nil {
		t.Fatal(err)
	}
	if p := srv.Progress(); p.Failed != 1 {
		t.Fatalf("progress = %+v, holder failure not recorded", p)
	}
	// ...until A's success arrives and supersedes it.
	if err := a.Finish(taskA, Outcome{}); err != nil {
		t.Fatal(err)
	}
	if p := srv.Progress(); p.Done != 1 || p.Failed != 0 {
		t.Fatalf("progress = %+v, want the success to supersede the failure", p)
	}
}

// TestOversizeArtifactDegradesToKeyOnly: an artifact whose base64 form
// cannot fit one frame is dropped before the send — the completion
// still lands (key-only; the coordinator recomputes that cell) and the
// drain loop survives instead of dying on a permanent WriteFrame error.
func TestOversizeArtifactDegradesToKeyOnly(t *testing.T) {
	var mu sync.Mutex
	storedKeys := []string{}
	srv := newTestServer(t, testTasks(1), ServerOptions{
		StoreArtifact: func(key string, data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			storedKeys = append(storedKeys, key)
			return nil
		},
	})
	cli := dialTest(t, srv, ClientOptions{})
	task, ok, err := cli.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	// Base64 expands 4/3×, so this cannot fit MaxFrame after encoding.
	huge := make([]byte, MaxFrame-1<<20)
	if err := cli.Finish(task, Outcome{Key: "abcd1234", Artifact: huge}); err != nil {
		t.Fatalf("oversize artifact aborted Finish: %v", err)
	}
	if p := srv.Progress(); p.Done != 1 || p.Failed != 0 {
		t.Fatalf("progress = %+v, want a key-only completion", p)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(storedKeys) != 0 {
		t.Fatalf("stored %v, want no artifact stored for the degraded completion", storedKeys)
	}
}

// TestGoodbyeStatsMerged: each departing worker's cache counters land in
// the coordinator's merged summary exactly once.
func TestGoodbyeStatsMerged(t *testing.T) {
	srv := newTestServer(t, testTasks(2), ServerOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(srv.Addr(), ClientOptions{
				IOTimeout:  5 * time.Second,
				FinalStats: func() CacheStats { return CacheStats{Hits: 2, Stores: 1} },
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			if err := Drain(cli, time.Second, func(Task) Outcome {
				return Outcome{}
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	sum := srv.Wait(time.Second, nil)
	if sum.StatsWorkers != 2 || sum.Stats.Hits != 4 || sum.Stats.Stores != 2 {
		t.Fatalf("summary stats = %+v from %d workers", sum.Stats, sum.StatsWorkers)
	}
}

// TestWaitDegradesWithoutWorkers: with tasks outstanding and no worker
// connected for the grace window, Wait returns instead of blocking
// forever, flagging the degrade so the coordinator recomputes in-process.
func TestWaitDegradesWithoutWorkers(t *testing.T) {
	srv := newTestServer(t, testTasks(1), ServerOptions{})
	start := time.Now()
	sum := srv.Wait(300*time.Millisecond, nil)
	if !sum.Degraded {
		t.Fatal("Wait did not flag the degrade")
	}
	if d := time.Since(start); d < 300*time.Millisecond || d > 5*time.Second {
		t.Fatalf("degrade after %v, want just past the grace window", d)
	}
}

// TestWaitReturnsWhenClosed: a coordinator closes its server once every
// worker it spawned has exited; Wait must then return at once, flagged
// degraded, instead of sitting out the grace window with tasks still
// outstanding (one leased to a worker that died, one never claimed).
func TestWaitReturnsWhenClosed(t *testing.T) {
	srv := newTestServer(t, testTasks(2), ServerOptions{})
	cli := dialTest(t, srv, ClientOptions{})
	if _, ok, err := cli.Claim(); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	cli.Close()
	go func() {
		time.Sleep(100 * time.Millisecond)
		srv.Close()
	}()
	start := time.Now()
	sum := srv.Wait(time.Minute, nil)
	if !sum.Degraded {
		t.Fatalf("summary = %+v, want Degraded after Close", sum)
	}
	if sum.Done != 0 || sum.Pending+sum.Leased != 2 {
		t.Fatalf("summary = %+v, want both tasks outstanding", sum)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Wait returned %v after Close, want promptly", d)
	}
}
