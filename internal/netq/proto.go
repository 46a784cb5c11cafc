// Package netq is the campaign work queue: a small stdlib-only TCP
// protocol that hands the design × profile cells of a campaign matrix to
// worker processes, on the coordinator's own host (cmd/thesaurus
// -distribute N spawns N loopback workers) or on any other (-serve plus
// -connect workers).
//
// The coordinator (cmd/thesaurus -serve or -distribute) listens on a TCP
// port, holds the campaign's task list, and hands out time-leased tasks;
// workers (cmd/thesaurus -connect) pull tasks, heartbeat their leases
// while computing (Drain), and report outcomes. A successful outcome
// carries the cell's encoded run output, and the coordinator alone
// decides where it goes: ServerOptions.Store receives the coordinator's
// own copy of the task with the bytes, so nothing a worker sends names a
// file, and a worker needs no cache of its own to contribute.
//
// Completion is at-least-once with idempotent effect: a lease that
// expires (no heartbeat) or whose connection drops re-queues its task for
// the surviving workers, and a duplicate completion of the same task is
// harmless because the run is deterministic — both executions produce
// the same bytes. Workers reconnect with exponential backoff plus
// jitter, and when the workers are gone the coordinator degrades to
// in-process recompute: the queue partitions work, the coordinator's
// content-addressed cache collects the results, so a transport failure
// costs redundant work, never correctness.
//
// Wire format: length-prefixed JSON frames — a 4-byte big-endian payload
// length, then the JSON-encoded message. The first exchange is a
// versioned handshake (hello/welcome); a proto-version mismatch is
// rejected explicitly, never silently misparsed.
//
// The listener is unauthenticated: bind it to loopback or a trusted
// network only. The server is defensive about worker input — frames are
// length-capped and results for unknown task IDs are ignored — but it
// cannot tell a wrong result from a right one; see docs/distribution.md's
// trust model.
package netq

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ProtoVersion is the wire-protocol version exchanged in the handshake.
// Any incompatible change to the frame layout or message schema bumps it;
// both sides reject a mismatch with an explicit error.
const ProtoVersion = 1

// MaxFrame bounds one frame's payload. Result frames, which carry a run
// output, are the largest legitimate payload (a few hundred bytes for a
// campaign cell); the bound exists so a corrupt or hostile length prefix
// cannot make a reader allocate gigabytes.
const MaxFrame = 64 << 20

// Message types. The protocol is strict request/response from the
// worker's side: hello→welcome|reject, claim→task|wait|drained,
// result→ack; heartbeat and goodbye are fire-and-forget.
const (
	msgHello     = "hello"     // worker → coordinator: version + identity
	msgWelcome   = "welcome"   // coordinator → worker: accepted
	msgReject    = "reject"    // coordinator → worker: handshake refused (version skew)
	msgClaim     = "claim"     // worker → coordinator: give me a task
	msgTask      = "task"      // coordinator → worker: leased task
	msgWait      = "wait"      // coordinator → worker: nothing claimable now, poll again
	msgDrained   = "drained"   // coordinator → worker: every task is terminal, disconnect
	msgHeartbeat = "heartbeat" // worker → coordinator: lease extension
	msgResult    = "result"    // worker → coordinator: task outcome + encoded run output
	msgAck       = "ack"       // coordinator → worker: result recorded
	msgGoodbye   = "goodbye"   // worker → coordinator: final cache stats
)

// message is the one frame schema; Type selects which fields are
// meaningful. JSON keeps the schema debuggable and versionable; the
// artifact payload rides as base64 inside it, which is fine at the
// once-per-task frequency results travel.
type message struct {
	Type  string `json:"type"`
	Proto int    `json:"proto,omitempty"`

	Task *Task `json:"task,omitempty"`

	// ID names the task a heartbeat/result/ack refers to. IDs are
	// non-negative; -1 marks "no task" where 0 would be ambiguous.
	ID int `json:"id,omitempty"`

	// Err carries a task failure (result), a refusal reason (reject), or
	// a recording problem the coordinator wants the worker to know (ack).
	Err string `json:"err,omitempty"`

	// Artifact is a successful result's encoded run output.
	Artifact []byte `json:"artifact,omitempty"`

	Stats *CacheStats `json:"stats,omitempty"`

	// WaitMS tells a waiting worker when to poll again.
	WaitMS int `json:"wait_ms,omitempty"`
}

// ErrFrameTooLarge marks a payload no frame can carry. It is permanent
// for a given message — retrying the identical send fails identically —
// so transports treat it as non-retryable.
var ErrFrameTooLarge = errors.New("netq: frame exceeds MaxFrame")

// WriteFrame writes one length-prefixed frame. An oversized payload is
// refused before any byte reaches w, so the stream stays framed.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: payload %d bytes (max %d)", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, rejecting payloads larger
// than MaxFrame before allocating anything.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("netq: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeMsg frames one message.
func writeMsg(w io.Writer, m *message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("netq: marshal %s: %w", m.Type, err)
	}
	return WriteFrame(w, data)
}

// readMsg reads and decodes one message.
func readMsg(r *bufio.Reader) (*message, error) {
	data, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	var m message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("netq: decode frame: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("netq: frame without message type")
	}
	return &m, nil
}
