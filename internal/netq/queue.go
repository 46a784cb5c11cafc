package netq

import "time"

// Task is one design × profile cell of a campaign matrix, carrying every
// run parameter the worker needs to run the coordinator's exact cell
// (the replay scalars mirror sim.ReplayOptions).
type Task struct {
	ID       int    `json:"id"`
	Profile  string `json:"profile"`
	Design   string `json:"design"`
	Accesses int    `json:"accesses"`

	WarmupFraction float64 `json:"warmup_fraction"`
	SampleEvery    int     `json:"sample_every"`
	Verify         bool    `json:"verify,omitempty"`
}

// Outcome is what a worker reports back for a finished task. Err carries
// the run failure, if any. Artifact is the encoded run output of a
// successful run, which the coordinator verifies and stores under a name
// it derives from its own copy of the task (ServerOptions.Store).
type Outcome struct {
	Err      error
	Artifact []byte
}

// CacheStats is the slice of a worker's artifact-cache counters the
// coordinator aggregates into one merged summary line (mirrors
// artifact.Stats, which netq does not import: the wire schema stays
// independent of the cache's internals). Fields are cumulative and merge
// by addition.
type CacheStats struct {
	Hits          uint64 `json:"hits,omitempty"`
	Misses        uint64 `json:"misses,omitempty"`
	Stores        uint64 `json:"stores,omitempty"`
	Corrupt       uint64 `json:"corrupt,omitempty"`
	Evictions     uint64 `json:"evictions,omitempty"`
	TouchFailures uint64 `json:"touch_failures,omitempty"`
	BytesLoaded   uint64 `json:"bytes_loaded,omitempty"`
	BytesStored   uint64 `json:"bytes_stored,omitempty"`
}

// Add merges o into s.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stores += o.Stores
	s.Corrupt += o.Corrupt
	s.Evictions += o.Evictions
	s.TouchFailures += o.TouchFailures
	s.BytesLoaded += o.BytesLoaded
	s.BytesStored += o.BytesStored
}

// queue is the worker-side view of the task queue that Drain consumes.
// *Client is the one implementation; the Drain tests script a fake.
type queue interface {
	// Claim takes the next task; ok is false once every task is terminal.
	Claim() (t Task, ok bool, err error)
	// Heartbeat extends the task's lease.
	Heartbeat(t Task) error
	// Finish reports the task's outcome and releases the lease.
	Finish(t Task, out Outcome) error
}

// HeartbeatEvery is the default interval between heartbeats while a task
// runs. It must be comfortably inside the coordinator's lease
// (ServerOptions.Lease), so a slow-but-alive worker is never mistaken for
// a dead one.
const HeartbeatEvery = 10 * time.Second

// Drain is the worker loop: claim a task, run it (heartbeating on the
// side), report the outcome, repeat until the queue is drained. run
// errors are carried in the Outcome — a failed cell is the coordinator's
// recompute problem, not a reason to stop draining — but transport errors
// from the queue itself stop the loop. interval ≤ 0 uses HeartbeatEvery.
func Drain(q queue, interval time.Duration, run func(Task) Outcome) error {
	if interval <= 0 {
		interval = HeartbeatEvery
	}
	for {
		t, ok, err := q.Claim()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		out := runWithHeartbeat(q, t, interval, run)
		if err := q.Finish(t, out); err != nil {
			return err
		}
	}
}

// runWithHeartbeat executes run(t) while a side goroutine heartbeats the
// lease every interval. Heartbeat errors are ignored: lease expiry
// re-issues the task in the worst case, and the content-addressed result
// keeps the duplicate harmless.
func runWithHeartbeat(q queue, t Task, interval time.Duration, run func(Task) Outcome) Outcome {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_ = q.Heartbeat(t)
			}
		}
	}()
	out := run(t)
	close(stop)
	<-done
	return out
}
