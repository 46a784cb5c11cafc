package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/netq"
	"repro/internal/workload"
)

// campaignTasks enumerates the design × profile matrix of the coming
// campaign as queue tasks.
func campaignTasks(opt experiments.Options) []netq.Task {
	profiles := opt.Profiles
	if len(profiles) == 0 {
		profiles = workload.Names()
	}
	ro := harness.DefaultRunOptions()
	var tasks []netq.Task
	for _, p := range profiles {
		for _, d := range harness.Designs {
			tasks = append(tasks, netq.Task{
				ID:             len(tasks),
				Profile:        p,
				Design:         d,
				Accesses:       opt.Accesses,
				WarmupFraction: ro.Replay.WarmupFraction,
				SampleEvery:    ro.Replay.SampleEvery,
				Verify:         ro.Replay.Verify,
			})
		}
	}
	return tasks
}

// taskRunOptions reconstructs the harness options a task's cell runs
// under.
func taskRunOptions(t netq.Task) harness.RunOptions {
	opt := harness.RunOptions{
		Accesses: t.Accesses,
		Replay:   harness.DefaultRunOptions().Replay,
	}
	opt.Replay.WarmupFraction = t.WarmupFraction
	opt.Replay.SampleEvery = t.SampleEvery
	opt.Replay.Verify = t.Verify
	return opt
}

// runCell executes one task's design × profile cell via the normal
// harness path and returns its run output encoded exactly as the
// artifact cache stores it, for the coordinator to store. Run failures
// ride the outcome (the task is marked failed, the coordinator
// recomputes in-process); they never stop the worker's drain loop.
func runCell(t netq.Task) netq.Outcome {
	out, err := harness.Run(t.Profile, t.Design, taskRunOptions(t))
	if err != nil {
		fmt.Fprintf(os.Stderr, "thesaurus worker: task %d (%s/%s): %v\n",
			t.ID, t.Profile, t.Design, err)
		return netq.Outcome{Err: err}
	}
	return netq.Outcome{Artifact: artifact.Encode(nil, &artifact.File{Run: out})}
}

// runWorker connects to a netq coordinator and drains its queue.
// connect is host:port, or @file naming a file that will hold the
// address (the coordinator's -addr-file; polled briefly so workers can
// start before the coordinator binds its port). Every completed task
// sends its encoded run output home, whatever this worker's own cache
// settings.
func runWorker(connect string) error {
	addr, err := resolveConnectAddr(connect)
	if err != nil {
		return err
	}
	cli, err := netq.Dial(addr, netq.ClientOptions{FinalStats: cacheStats})
	if err != nil {
		return err
	}
	defer cli.Close()
	return netq.Drain(cli, netq.HeartbeatEvery, runCell)
}

// resolveConnectAddr turns a -connect value into a dialable address,
// polling an @file until the coordinator publishes into it.
func resolveConnectAddr(connect string) (string, error) {
	if len(connect) == 0 {
		return "", errors.New("-connect requires an address")
	}
	if connect[0] != '@' {
		return connect, nil
	}
	path := connect[1:]
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			return string(data), nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = errors.New("file is empty")
			}
			return "", fmt.Errorf("-connect %s: %w", connect, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// spawnWorkers launches n copies of our own binary with args, returning
// a channel that receives each worker's exit status.
func spawnWorkers(n int, args []string) (<-chan error, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("serve: resolve executable: %w", err)
	}
	exited := make(chan error, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		// Workers write nothing the report needs: stdout would only ever
		// carry accidental prints, so both streams go to our stderr.
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("serve: start worker: %w", err)
		}
		go func() { exited <- cmd.Wait() }()
	}
	return exited, nil
}

// workerArgs is the slice of our own flag state a spawned worker must
// inherit to address the same cache with the same semantics.
type workerArgs struct {
	cacheDir   string
	cacheMax   int64
	noRunCache bool
	verify     bool
}

// flags renders the inherited state as command-line arguments.
func (a workerArgs) flags() []string {
	args := []string{"-cache-dir", a.cacheDir}
	if a.cacheMax > 0 {
		args = append(args, "-cache-max-bytes", strconv.FormatInt(a.cacheMax, 10))
	}
	if a.noRunCache {
		args = append(args, "-no-run-cache")
	}
	if a.verify {
		args = append(args, "-cache-verify")
	}
	return args
}
