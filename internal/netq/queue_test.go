package netq

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeQueue scripts a queue for the Drain loop: a fixed task list, with
// optional transport failures.
type fakeQueue struct {
	mu         sync.Mutex
	tasks      []Task
	heartbeats map[int]int
	finished   []Outcome
	claimErr   error
	finishErr  error
}

func (q *fakeQueue) Claim() (Task, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.claimErr != nil {
		return Task{}, false, q.claimErr
	}
	if len(q.tasks) == 0 {
		return Task{}, false, nil
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true, nil
}

func (q *fakeQueue) Heartbeat(t Task) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.heartbeats == nil {
		q.heartbeats = map[int]int{}
	}
	q.heartbeats[t.ID]++
	return nil
}

func (q *fakeQueue) Finish(t Task, out Outcome) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finishErr != nil {
		return q.finishErr
	}
	q.finished = append(q.finished, out)
	return nil
}

// TestDrainRunsEveryTask: the loop claims to exhaustion, reporting each
// outcome — including failed cells, which must not stop the drain.
func TestDrainRunsEveryTask(t *testing.T) {
	q := &fakeQueue{tasks: []Task{{ID: 0}, {ID: 1}, {ID: 2}}}
	boom := errors.New("cell failed")
	err := Drain(q, time.Hour, func(task Task) Outcome {
		if task.ID == 1 {
			return Outcome{Err: boom}
		}
		return Outcome{Key: "k"}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.finished) != 3 {
		t.Fatalf("finished %d outcomes, want 3", len(q.finished))
	}
	if q.finished[1].Err != boom {
		t.Fatal("failed cell's error did not ride its outcome")
	}
}

// TestDrainStopsOnTransportError: queue errors (unlike run errors) end
// the loop and surface to the caller.
func TestDrainStopsOnTransportError(t *testing.T) {
	broken := errors.New("transport down")
	q := &fakeQueue{claimErr: broken}
	if err := Drain(q, time.Hour, func(Task) Outcome { return Outcome{} }); !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the transport error", err)
	}
	q = &fakeQueue{tasks: []Task{{ID: 0}}, finishErr: broken}
	if err := Drain(q, time.Hour, func(Task) Outcome { return Outcome{} }); !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the transport error from Finish", err)
	}
}

// TestDrainHeartbeatsDuringRun: a slow task is heartbeated on the side,
// and the heartbeats stop once the task finishes.
func TestDrainHeartbeatsDuringRun(t *testing.T) {
	q := &fakeQueue{tasks: []Task{{ID: 7}}}
	err := Drain(q, 10*time.Millisecond, func(Task) Outcome {
		time.Sleep(120 * time.Millisecond)
		return Outcome{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.heartbeats[7] < 3 {
		t.Fatalf("heartbeats = %d, want several during the slow run", q.heartbeats[7])
	}
	n := q.heartbeats[7]
	time.Sleep(50 * time.Millisecond)
	if q.heartbeats[7] != n {
		t.Fatal("heartbeats continued after the task finished")
	}
}

// TestCacheStatsAdd: merge is field-wise addition.
func TestCacheStatsAdd(t *testing.T) {
	a := CacheStats{Hits: 1, Misses: 2, Stores: 3, BytesLoaded: 10}
	a.Add(CacheStats{Hits: 4, Corrupt: 5, BytesStored: 20})
	want := CacheStats{Hits: 5, Misses: 2, Stores: 3, Corrupt: 5, BytesLoaded: 10, BytesStored: 20}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
}
