package netq

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ClientOptions configures a worker-side connection.
type ClientOptions struct {
	// CacheDir is the worker's artifact cache directory, probed against
	// the coordinator's session token to detect a shared filesystem.
	// Empty means never shared (always stream artifacts).
	CacheDir string

	// IOTimeout bounds each dial, send, and reply read. 0 means 30s.
	IOTimeout time.Duration

	// MaxAttempts bounds consecutive reconnect attempts for one
	// operation before the queue reports a transport error. 0 means 8
	// (≈13s of exponential backoff).
	MaxAttempts int

	// FinalStats, when non-nil, is called once at drain time; the result
	// rides the goodbye frame so the coordinator can print one merged
	// stats line instead of N interleaved ones.
	FinalStats func() CacheStats
}

// Client is the worker-side queue handle that Drain consumes. It
// survives coordinator restarts and network blips by redialing with
// exponential backoff plus jitter; operations are idempotent on the
// server (duplicate results are dropped), so a retry after a
// half-delivered frame is safe.
//
// A Client is safe for the Drain usage pattern (heartbeats
// concurrent with the claim/finish sequence); all operations serialize on
// one internal mutex.
type Client struct {
	addr string
	opt  ClientOptions

	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	shared  bool
	backoff int // consecutive failed connects (jittered exponential)
}

// errVersionSkew marks a handshake rejection: permanent, never retried.
var errVersionSkew = errors.New("netq: protocol version skew")

// Dial connects to the coordinator at addr and completes the handshake.
func Dial(addr string, opt ClientOptions) (*Client, error) {
	if opt.IOTimeout <= 0 {
		opt.IOTimeout = 30 * time.Second
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 8
	}
	c := &Client{addr: addr, opt: opt}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// SharedCache reports whether the handshake proved the coordinator's
// cache directory and ours are the same filesystem location.
func (c *Client) SharedCache() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shared
}

// StreamArtifacts reports whether outcomes must carry artifact bytes:
// exactly when the cache is not shared.
func (c *Client) StreamArtifacts() bool { return !c.SharedCache() }

// Close drops the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// connectLocked dials and handshakes. Caller holds c.mu.
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opt.IOTimeout)
	if err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(c.opt.IOTimeout))
	if err := writeMsg(conn, &message{Type: msgHello, Proto: ProtoVersion}); err != nil {
		conn.Close()
		return err
	}
	m, err := readMsg(br)
	if err != nil {
		conn.Close()
		return err
	}
	switch m.Type {
	case msgReject:
		conn.Close()
		return fmt.Errorf("%w: %s", errVersionSkew, m.Err)
	case msgWelcome:
		// Proceed.
	default:
		conn.Close()
		return fmt.Errorf("netq: handshake: unexpected %q", m.Type)
	}
	c.conn, c.br = conn, br
	c.shared = c.probeSharedDir(m.TokenFile, m.Token)
	return nil
}

// probeSharedDir reports whether the coordinator's session token file is
// visible — with identical content — under our own cache directory,
// which proves both -cache-dir flags name one filesystem location.
func (c *Client) probeSharedDir(tokenFile, token string) bool {
	if c.opt.CacheDir == "" || tokenFile == "" || token == "" {
		return false
	}
	data, err := os.ReadFile(filepath.Join(c.opt.CacheDir, filepath.Base(tokenFile)))
	return err == nil && bytes.Equal(data, []byte(token))
}

// sleepBackoff sleeps the jittered exponential backoff for the n-th
// consecutive failure: base 100ms doubling to a 3s cap, scaled by a
// 50–150% jitter factor so a fleet of workers restarting together does
// not reconnect in lockstep. The jitter source is the wall clock's
// nanoseconds — scheduling, not simulation, so determinism is not owed.
func sleepBackoff(n int) {
	d := 100 * time.Millisecond << uint(min(n, 5))
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	jitter := 50 + time.Now().UnixNano()%101 // 50..150
	time.Sleep(d * time.Duration(jitter) / 100)
}

// do sends m and, when wantReply, reads one response — reconnecting and
// retrying on any transport error up to MaxAttempts times. Version skew
// is permanent and returned immediately.
func (c *Client) do(m *message, wantReply bool) (*message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if c.conn == nil {
			if err := c.connectLocked(); err != nil {
				if errors.Is(err, errVersionSkew) {
					return nil, err
				}
				lastErr = err
				c.backoff++
				c.mu.Unlock()
				sleepBackoff(c.backoff)
				c.mu.Lock()
				continue
			}
			c.backoff = 0
		}
		c.conn.SetDeadline(time.Now().Add(c.opt.IOTimeout))
		err := writeMsg(c.conn, m)
		if errors.Is(err, ErrFrameTooLarge) {
			// Nothing entered the socket (WriteFrame refuses before
			// writing), so the connection is intact — and a retry of the
			// same message can only fail identically. Permanent.
			return nil, err
		}
		if err == nil && !wantReply {
			return nil, nil
		}
		var reply *message
		if err == nil {
			reply, err = readMsg(c.br)
		}
		if err == nil {
			return reply, nil
		}
		lastErr = err
		c.dropLocked()
	}
	return nil, fmt.Errorf("netq: %s failed after %d attempts: %w", m.Type, c.opt.MaxAttempts, lastErr)
}

// Claim asks for a task, polling through wait responses until the
// coordinator hands one out or declares the queue drained. At drain it
// also delivers the goodbye/stats frame — the last thing the coordinator
// hears from this worker.
func (c *Client) Claim() (Task, bool, error) {
	for {
		m, err := c.do(&message{Type: msgClaim}, true)
		if err != nil {
			return Task{}, false, err
		}
		switch m.Type {
		case msgTask:
			if m.Task == nil {
				return Task{}, false, fmt.Errorf("netq: task frame without task")
			}
			return *m.Task, true, nil
		case msgWait:
			wait := time.Duration(m.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = pollEvery
			}
			time.Sleep(wait)
		case msgDrained:
			c.sayGoodbye()
			return Task{}, false, nil
		default:
			return Task{}, false, fmt.Errorf("netq: claim: unexpected %q", m.Type)
		}
	}
}

// sayGoodbye reports final cache stats, then drops the connection so the
// coordinator sees a crisp departure: the goodbye frame arrives in-order
// before the disconnect, which is what lets Wait's linger window collect
// every cleanly-departing worker's stats. Fire-and-forget (the merged
// stats line is a convenience, not a correctness dependency).
func (c *Client) sayGoodbye() {
	g := &message{Type: msgGoodbye}
	if c.opt.FinalStats != nil {
		st := c.opt.FinalStats()
		g.Stats = &st
	}
	c.do(g, false)
	c.mu.Lock()
	c.dropLocked()
	c.mu.Unlock()
}

// Heartbeat extends t's lease; fire-and-forget, failures surface as
// lease expiry at worst.
func (c *Client) Heartbeat(t Task) error {
	_, err := c.do(&message{Type: msgHeartbeat, ID: t.ID}, false)
	return err
}

// resultEnvelope overestimates every non-artifact byte of a result
// frame: the JSON field names, the task ID, the key, and the error
// string. Anything this loose bound plus the base64-expanded artifact
// leaves under MaxFrame is guaranteed to frame.
const resultEnvelope = 4096

// Finish delivers t's outcome and waits for the coordinator's ack so a
// crash after Finish can never lose a result silently. An ack carrying
// an error means the coordinator could not record the completion (it
// will recompute); the worker moves on.
func (c *Client) Finish(t Task, out Outcome) error {
	m := &message{Type: msgResult, ID: t.ID, Key: out.Key, Artifact: out.Artifact}
	if out.Err != nil {
		m.Err = out.Err.Error()
	}
	// An artifact too large to frame would fail WriteFrame permanently no
	// matter how often do retries, aborting the whole drain loop. Degrade
	// to a key-only completion instead: the completion still counts, and
	// the coordinator recomputes that one cell in-process, exactly as when
	// the worker had nothing to stream.
	if len(m.Artifact) > 0 && base64.StdEncoding.EncodedLen(len(m.Artifact))+resultEnvelope > MaxFrame {
		m.Artifact = nil
	}
	reply, err := c.do(m, true)
	if err != nil {
		return err
	}
	if reply.Type != msgAck {
		return fmt.Errorf("netq: finish: unexpected %q", reply.Type)
	}
	return nil
}
