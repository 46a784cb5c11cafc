package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/netq"
)

// serveCampaign pre-warms the cache over the TCP work queue: it serves
// the campaign's design × profile matrix on addr, waits for workers
// (spawn > 0 launches that many local worker processes pointed back at
// us), and returns once every task is terminal — or once waiting is
// pointless, at which point it degrades: the in-process campaign that
// follows recomputes whatever the cache is missing, so a transport
// failure costs redundant work, never correctness or report bytes.
//
// An empty addr is -distribute without -serve: the queue listens on
// loopback only, so the spawned workers are the only ones that can ever
// connect, and the server closes as soon as all of them have exited.
// With -serve, remote workers may join at any time, so only the grace
// window (no worker connected for grace) ends the wait early.
func serveCampaign(addr, addrFile string, lease, grace time.Duration,
	spawn int, wa workerArgs, opt experiments.Options, cache *artifact.Cache) error {
	if cache == nil {
		return errors.New("-serve and -distribute require the artifact cache (-no-cache is incompatible)")
	}
	local := addr == ""
	if local {
		addr = "127.0.0.1:0"
	}
	tasks := campaignTasks(opt)
	srv, err := netq.NewServer(addr, tasks, netq.ServerOptions{
		Lease: lease,
		// Every result is stored under the key derived from the
		// coordinator's own copy of the task: on an unauthenticated
		// listener, nothing a worker sends names a file.
		Store: func(t netq.Task, data []byte) error {
			key, err := harness.DefaultRunContentKey(t.Profile, t.Design, taskRunOptions(t))
			if err != nil {
				return err
			}
			return cache.StoreRawRunOutput(key, data)
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "serve: %d tasks on %s (lease %s)\n", len(tasks), srv.Addr(), lease)

	if addrFile != "" {
		if err := publishAddr(addrFile, srv.Addr()); err != nil {
			return err
		}
		defer os.Remove(addrFile)
	}

	if spawn > 0 {
		exited, err := spawnWorkers(spawn, append([]string{"-connect", srv.Addr()}, wa.flags()...))
		if err != nil {
			return err
		}
		go func() {
			for i := 0; i < spawn; i++ {
				if err := <-exited; err != nil {
					// A dead worker is a warning, not a failure: its leases
					// requeue for the others, and the in-process campaign
					// computes whatever the cache is still missing.
					fmt.Fprintf(os.Stderr, "serve: worker exited with error: %v\n", err)
				}
			}
			// Once every task is terminal, Wait returns on its own; closing
			// then could cut off the last workers' goodbye frames.
			if local && !srv.Progress().Terminal() {
				srv.Close()
			}
		}()
	}

	sum := srv.Wait(grace, func(p netq.Progress) {
		fmt.Fprintf(os.Stderr, "serve: %d/%d done, %d leased, %d pending, %d workers\r",
			p.Done, p.Total, p.Leased, p.Pending, p.Workers)
	})
	fmt.Fprintf(os.Stderr, "serve: %d/%d done, %d failed, %d requeued, %d workers over the run\n",
		sum.Done, sum.Total, sum.Failed, sum.Requeues, sum.WorkersEver)
	for _, m := range sum.Failures {
		fmt.Fprintf(os.Stderr, "serve: %s (will recompute in-process)\n", m)
	}
	if sum.Degraded {
		fmt.Fprintf(os.Stderr,
			"serve: workers gone with %d tasks outstanding — degrading to in-process recompute\n",
			sum.Pending+sum.Leased)
	}
	if sum.StatsWorkers > 0 {
		printCacheStats(fmt.Sprintf("artifact cache (%d workers)", sum.StatsWorkers), sum.Stats)
	}
	return nil
}

// publishAddr writes the bound address for -connect @file workers,
// via temp + rename so a polling worker never reads a torn address.
func publishAddr(path, addr string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".addr-tmp-*")
	if err != nil {
		return fmt.Errorf("serve: publish address: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.WriteString(addr); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("serve: publish address: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: publish address: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: publish address: %w", err)
	}
	return nil
}
