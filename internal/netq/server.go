package netq

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// ServerOptions configures a coordinator-side queue.
type ServerOptions struct {
	// Lease is how long a claimed task may go without a heartbeat before
	// it re-queues for another worker. It must comfortably exceed one
	// heartbeat interval (HeartbeatEvery); 0 means 2 minutes.
	Lease time.Duration

	// Store persists one successful result: the coordinator's own copy of
	// the task and the artifact bytes the worker sent, which the caller
	// verifies and names (netq knows neither the codec nor the cache
	// layout). Required. An error fails the task, and the coordinator
	// recomputes it in-process.
	Store func(t Task, artifact []byte) error
}

// Progress is a point-in-time snapshot of the queue's state.
type Progress struct {
	Total, Done, Failed, Leased, Pending int
	// Workers is how many workers are connected right now; WorkersEver
	// counts distinct connections that completed the handshake.
	Workers, WorkersEver int
	// Requeues counts tasks returned to the queue by lease expiry or
	// connection loss; DupResults counts results for already-terminal
	// tasks (harmless: the first completion won).
	Requeues, DupResults int
}

// Terminal reports whether every task reached a terminal state.
func (p Progress) Terminal() bool { return p.Done+p.Failed == p.Total }

// Summary is what Wait returns to the coordinator.
type Summary struct {
	Progress
	// Failures are the failed tasks' error strings, in task-ID order.
	Failures []string
	// Stats is the sum of every reporting worker's cache counters;
	// StatsWorkers is how many workers reported.
	Stats        CacheStats
	StatsWorkers int
	// Degraded is set when Wait returned with tasks still outstanding:
	// the server was closed, or no worker connected for the grace window.
	Degraded bool
}

// lease is one outstanding claim.
type lease struct {
	task     Task
	deadline time.Time
	conn     net.Conn
}

// Server owns the coordinator side of the queue: the listener, the task
// states, and the lease table. All exported methods are safe for
// concurrent use.
type Server struct {
	opt ServerOptions
	ln  net.Listener
	// idle bounds how long a connected worker may stay silent (a live
	// worker polls or heartbeats far more often): max(2×Lease, 30s). On
	// expiry the connection is dropped and its leases re-queue, so a
	// partitioned worker cannot hold the coordinator's worker count up
	// forever.
	idle time.Duration
	stop chan struct{}

	mu           sync.Mutex
	conns        map[net.Conn]bool
	tasks        map[int]Task // every task ever loaded, by ID
	pending      []Task
	leases       map[int]*lease
	done         map[int]bool
	failed       map[int]string
	total        int
	requeues     int
	dupResults   int
	workersNow   int
	workersEver  int
	stats        CacheStats
	statsWorkers int
	closed       bool

	wg sync.WaitGroup
}

// NewServer listens on addr (host:port; port 0 picks a free one), loads
// the queue with tasks, and starts serving. Close releases the listener.
func NewServer(addr string, tasks []Task, opt ServerOptions) (*Server, error) {
	if opt.Store == nil {
		return nil, errors.New("netq: ServerOptions.Store is required")
	}
	if opt.Lease <= 0 {
		opt.Lease = 2 * time.Minute
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netq: listen %s: %w", addr, err)
	}
	s := &Server{
		opt:     opt,
		ln:      ln,
		idle:    max(2*opt.Lease, 30*time.Second),
		stop:    make(chan struct{}),
		conns:   map[net.Conn]bool{},
		tasks:   make(map[int]Task, len(tasks)),
		pending: append([]Task(nil), tasks...),
		leases:  map[int]*lease{},
		done:    map[int]bool{},
		failed:  map[int]string{},
		total:   len(tasks),
	}
	for _, t := range tasks {
		s.tasks[t.ID] = t
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.leaseScan()
	return s, nil
}

// Addr returns the listener's address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and drops every worker. Safe to call more than
// once.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	for conn := range s.conns {
		conn.Close() // unblock handleConn reads; exit order is irrelevant
	}
	s.mu.Unlock()
	if already {
		return
	}
	close(s.stop)
	s.ln.Close()
	s.wg.Wait()
}

// Progress snapshots the queue state.
func (s *Server) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progressLocked()
}

func (s *Server) progressLocked() Progress {
	return Progress{
		Total:       s.total,
		Done:        len(s.done),
		Failed:      len(s.failed),
		Leased:      len(s.leases),
		Pending:     len(s.pending),
		Workers:     s.workersNow,
		WorkersEver: s.workersEver,
		Requeues:    s.requeues,
		DupResults:  s.dupResults,
	}
}

// pollEvery is the queue's polling floor: how long a worker told to wait
// sleeps before it claims again, and how often Wait re-checks the queue.
// A finished campaign sits idle for up to one floor on each side before
// the coordinator moves on, so it stays short; a loopback claim costs
// microseconds.
const pollEvery = 20 * time.Millisecond

// Wait blocks until every task is terminal, or until waiting longer is
// pointless with tasks still outstanding: the server was closed (a
// coordinator closes it once every worker it spawned has exited and no
// other can join), or no worker has been connected for grace (the grace
// timer restarts whenever a worker connects). Those two return Degraded,
// and the coordinator recomputes the outstanding cells in-process.
// onTick, when non-nil, is called roughly every 200ms with a progress
// snapshot (the CLI's live stderr line).
func (s *Server) Wait(grace time.Duration, onTick func(Progress)) Summary {
	idleSince := time.Now()
	var terminalSince, lastTick time.Time
	for ; ; time.Sleep(pollEvery) {
		s.mu.Lock()
		p, closed := s.progressLocked(), s.closed
		s.mu.Unlock()
		if onTick != nil && time.Since(lastTick) >= 200*time.Millisecond {
			onTick(p)
			lastTick = time.Now()
		}
		if p.Terminal() {
			// Linger for still-connected workers: their goodbye frames
			// (the final cache stats) arrive right after they see drained,
			// strictly before their disconnect drops the worker count. A
			// hung worker cannot pin us — the linger is capped.
			if terminalSince.IsZero() {
				terminalSince = time.Now()
			}
			if p.Workers == 0 || time.Since(terminalSince) > 2*time.Second {
				return s.summary(false)
			}
			continue
		}
		if closed {
			return s.summary(true)
		}
		if p.Workers > 0 || p.Leased > 0 {
			idleSince = time.Now()
		} else if time.Since(idleSince) > grace {
			return s.summary(true)
		}
	}
}

// summary assembles the final report.
func (s *Server) summary(degraded bool) Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := Summary{
		Progress:     s.progressLocked(),
		Stats:        s.stats,
		StatsWorkers: s.statsWorkers,
		Degraded:     degraded,
	}
	ids := make([]int, 0, len(s.failed))
	for id := range s.failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		sum.Failures = append(sum.Failures, fmt.Sprintf("task %d: %s", id, s.failed[id]))
	}
	return sum
}

// acceptLoop admits workers until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// leaseScan re-queues expired leases: a worker that stopped heartbeating
// is presumed dead and its tasks go back to the survivors. The scan
// period divides the lease so expiry is detected within a fraction of it.
func (s *Server) leaseScan() {
	defer s.wg.Done()
	period := s.opt.Lease / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		now := time.Now()
		ids := make([]int, 0, len(s.leases))
		for id := range s.leases {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if l := s.leases[id]; now.After(l.deadline) {
				delete(s.leases, id)
				s.pending = append(s.pending, l.task)
				s.requeues++
			}
		}
		s.mu.Unlock()
	}
}

// handleConn runs one worker connection: handshake, then the
// claim/heartbeat/result loop. Any read error — including the idle
// timeout — drops the connection and immediately re-queues its leases
// (connection loss is a faster death signal than lease expiry).
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)

	deadline := func() { conn.SetReadDeadline(time.Now().Add(s.idle)) }
	// send bounds every reply write too: a peer that stops reading with a
	// full socket buffer would otherwise pin this goroutine (and the
	// worker count Wait's degrade logic watches) until Close.
	send := func(m *message) error {
		conn.SetWriteDeadline(time.Now().Add(s.idle))
		return writeMsg(conn, m)
	}
	deadline()
	hello, err := readMsg(br)
	if err != nil || hello.Type != msgHello {
		return
	}
	if hello.Proto != ProtoVersion {
		send(&message{Type: msgReject, Proto: ProtoVersion,
			Err: fmt.Sprintf("netq: protocol version skew: coordinator speaks v%d, worker spoke v%d", ProtoVersion, hello.Proto)})
		return
	}
	if err := send(&message{Type: msgWelcome, Proto: ProtoVersion}); err != nil {
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = true
	s.workersNow++
	s.workersEver++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.workersNow--
		s.releaseConnLeasesLocked(conn)
		s.mu.Unlock()
	}()

	for {
		deadline()
		m, err := readMsg(br)
		if err != nil {
			return
		}
		switch m.Type {
		case msgClaim:
			if err := send(s.claim(conn)); err != nil {
				return
			}
		case msgHeartbeat:
			s.heartbeat(conn, m.ID)
		case msgResult:
			ack := s.result(conn, m)
			if err := send(ack); err != nil {
				return
			}
		case msgGoodbye:
			s.mu.Lock()
			if m.Stats != nil {
				s.stats.Add(*m.Stats)
				s.statsWorkers++
			}
			s.mu.Unlock()
		default:
			return // protocol violation: drop the worker, leases re-queue
		}
	}
}

// claim pops the next pending task under a fresh lease, or reports the
// queue state (wait while leases are outstanding, drained when every
// task is terminal).
func (s *Server) claim(conn net.Conn) *message {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) > 0 {
		t := s.pending[0]
		s.pending = s.pending[1:]
		if s.done[t.ID] || s.failed[t.ID] != "" {
			// Re-queued by a lease expiry or connection drop, then finished
			// by the original worker after all: already terminal, skip.
			continue
		}
		s.leases[t.ID] = &lease{task: t, deadline: time.Now().Add(s.opt.Lease), conn: conn}
		task := t
		return &message{Type: msgTask, Task: &task}
	}
	if s.progressLocked().Terminal() || s.closed {
		return &message{Type: msgDrained}
	}
	// Tasks are leased elsewhere; one may come back if its worker
	// dies, so the worker should poll rather than leave.
	return &message{Type: msgWait, WaitMS: int(pollEvery / time.Millisecond)}
}

// heartbeat extends the caller's lease. A heartbeat for a lease this
// connection no longer holds (expired and re-queued, or re-leased to
// another worker) is ignored; the eventual duplicate result is handled
// idempotently.
func (s *Server) heartbeat(conn net.Conn, id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.leases[id]; ok && l.conn == conn {
		l.deadline = time.Now().Add(s.opt.Lease)
	}
}

// result records one completion. The first successful result for a task
// wins; later duplicates (a reclaimed lease raced its original worker)
// are acknowledged and dropped, keeping completion exactly-once no
// matter how many workers finish the same task. Failures are narrower:
// only the current lease holder may fail a task (a stale worker's error
// must not pin the task failed while the live holder is still
// computing), and a success always supersedes an earlier failure — the
// run is deterministic, so whoever computed it computed the same bytes.
func (s *Server) result(conn net.Conn, m *message) *message {
	s.mu.Lock()
	task, known := s.tasks[m.ID]
	if !known {
		// A result for a task this queue never issued must not touch the
		// terminal maps: their sizes drive Progress.Terminal, so a bogus
		// ID could end Wait with real tasks still outstanding.
		s.dupResults++
		s.mu.Unlock()
		return &message{Type: msgAck, ID: m.ID, Err: "unknown task"}
	}
	if s.done[m.ID] {
		s.dupResults++
		s.mu.Unlock()
		return &message{Type: msgAck, ID: m.ID}
	}
	if m.Err != "" {
		if l := s.leases[m.ID]; l != nil && l.conn == conn {
			delete(s.leases, m.ID)
			s.failed[m.ID] = m.Err
		} else {
			// Reclaimed lease: the task is pending again or another worker
			// holds it now. Dropping the stale failure leaves the live
			// attempt free to succeed instead of being dup-dropped against
			// a terminal failed state.
			s.dupResults++
		}
		s.mu.Unlock()
		return &message{Type: msgAck, ID: m.ID}
	}
	delete(s.leases, m.ID)
	s.mu.Unlock()

	// Store outside the lock: artifact writes hit the disk. Idempotence
	// holds because a duplicate store writes identical bytes for the same
	// task. A success without bytes is an artifact too large to frame
	// (Client.Finish): it completes the task, and the coordinator
	// recomputes that cell in-process.
	if len(m.Artifact) > 0 {
		if err := s.opt.Store(task, m.Artifact); err != nil {
			return s.failResult(m.ID, fmt.Sprintf("store streamed artifact: %v", err))
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[m.ID] {
		s.dupResults++
	} else {
		delete(s.failed, m.ID) // success supersedes an earlier failure
		s.done[m.ID] = true
	}
	return &message{Type: msgAck, ID: m.ID}
}

// failResult marks a completion that could not be recorded; the final
// in-process pass recomputes the cell.
func (s *Server) failResult(id int, reason string) *message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done[id] && s.failed[id] == "" {
		s.failed[id] = reason
	}
	return &message{Type: msgAck, ID: id, Err: reason}
}

// releaseConnLeasesLocked re-queues every lease held by a dying
// connection. Caller holds s.mu.
func (s *Server) releaseConnLeasesLocked(conn net.Conn) {
	ids := make([]int, 0, len(s.leases))
	for id := range s.leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if l := s.leases[id]; l.conn == conn {
			delete(s.leases, id)
			s.pending = append(s.pending, l.task)
			s.requeues++
		}
	}
}
