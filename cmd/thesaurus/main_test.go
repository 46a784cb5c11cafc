package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs the command instead of the tests when a test re-executes
// the test binary as the CLI.
func TestMain(m *testing.M) {
	if os.Getenv("THESAURUS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli returns the command that re-executes the test binary as the CLI.
func cli(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "THESAURUS_TEST_MAIN=1")
	return cmd
}

// report runs the CLI and returns its stdout without the wall-clock
// lines, and its stderr.
func report(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := cli(args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("thesaurus %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	var kept []string
	for _, ln := range strings.SplitAfter(out.String(), "\n") {
		if !strings.Contains(ln, "completed in") {
			kept = append(kept, ln)
		}
	}
	return strings.Join(kept, ""), errOut.String()
}

// TestWorkerWithoutRunCacheContributes: a -connect worker sends every
// cell's run output home, so one started with -no-cache or -no-run-cache
// leaves the coordinator nothing to recompute, and the report is the
// serial one. The coordinator's summary starts a line of its own, after
// the live progress line.
func TestWorkerWithoutRunCacheContributes(t *testing.T) {
	campaign := []string{"-workers", "1", "-n", "3000", "-profiles", "mcf", "fig13"}
	want, _ := report(t, append([]string{"-no-cache"}, campaign...)...)
	misses := regexp.MustCompile(`(?m)^artifact cache: \d+ hits, (\d+) misses,`)
	summary := regexp.MustCompile(`(?m)^serve: \d+/\d+ done, \d+ failed,`)
	for _, mode := range [][]string{{"-no-cache"}, {"-no-run-cache"}} {
		t.Run(mode[0][1:], func(t *testing.T) {
			dir := t.TempDir()
			addr := filepath.Join(dir, "addr")
			var workerErr bytes.Buffer
			worker := cli(append([]string{"-connect", "@" + addr, "-cache-dir", filepath.Join(dir, "worker")}, mode...)...)
			worker.Stdout, worker.Stderr = &workerErr, &workerErr
			if err := worker.Start(); err != nil {
				t.Fatal(err)
			}
			got, stderr := report(t, append([]string{"-serve", "127.0.0.1:0", "-addr-file", addr,
				"-cache-dir", filepath.Join(dir, "coordinator")}, campaign...)...)
			if err := worker.Wait(); err != nil {
				t.Fatalf("worker: %v\n%s", err, workerErr.String())
			}
			if got != want {
				t.Errorf("report differs from the serial -no-cache run:\n%s\nwant:\n%s", got, want)
			}
			if m := misses.FindStringSubmatch(stderr); m == nil || m[1] != "0" {
				t.Errorf("coordinator recomputed cells the worker finished:\n%s", stderr)
			}
			if !summary.MatchString(stderr) {
				t.Errorf("coordinator summary does not start its own line:\n%q", stderr)
			}
		})
	}
}

// TestDistributeMatchesSerial: -distribute spawns its workers from the
// coordinator's own binary, and the goroutine that reaps them calls
// Server.Progress and Server.Close while Server.Wait polls (make race).
// Every cell comes home from a worker, and the report is the serial one.
func TestDistributeMatchesSerial(t *testing.T) {
	campaign := []string{"-workers", "1", "-n", "3000", "-profiles", "mcf", "fig13"}
	want, _ := report(t, append([]string{"-no-cache"}, campaign...)...)
	got, stderr := report(t, append([]string{"-distribute", "1", "-cache-dir", t.TempDir()}, campaign...)...)
	if got != want {
		t.Errorf("report differs from the serial -no-cache run:\n%s\nwant:\n%s", got, want)
	}
	if !regexp.MustCompile(`(?m)^artifact cache: \d+ hits, 0 misses,`).MatchString(stderr) {
		t.Errorf("coordinator recomputed cells its worker ran:\n%s", stderr)
	}
}

// TestQuickWithExplicitN: -quick replaces the trace length, so an explicit
// -n beside it is a usage error instead of being silently dropped.
func TestQuickWithExplicitN(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-cache", "-quick", "-n", "3000", "-profiles", "mcf", "fig13"}, 2},
		{[]string{"-no-cache", "-n", "3000", "-quick", "-profiles", "mcf", "fig13"}, 2},
		{[]string{"-no-cache", "-quick", "table1"}, 0},
		{[]string{"-no-cache", "-n", "3000", "table1"}, 0},
	} {
		out, err := cli(c.args...).CombinedOutput()
		got := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			got = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("thesaurus %s: exit status %d, want %d\n%s", strings.Join(c.args, " "), got, c.want, out)
		}
	}
}
