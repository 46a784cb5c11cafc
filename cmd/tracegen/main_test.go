package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/harness"
)

// TestMain runs the command instead of the tests when a test re-executes
// the test binary as the CLI.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracegen re-executes the test binary as the CLI and returns its
// combined output and exit error.
func tracegen(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACEGEN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestNoOutputIsUsageError: without -artifact, -cache-dir or -list there
// is nothing to write, so tracegen exits 2 with a usage line.
func TestNoOutputIsUsageError(t *testing.T) {
	out, err := tracegen("-profile", "mcf", "-n", "3000")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(out, "usage:") {
		t.Fatalf("tracegen without an output: %v\n%s", err, out)
	}
}

// TestRecordingsAreWhatTheHarnessLoads: a recording tracegen stores with
// -cache-dir is a hit for the harness's RecordProfile over that cache,
// and the file -artifact writes decodes to the same recording.
func TestRecordingsAreWhatTheHarnessLoads(t *testing.T) {
	const profile, accesses = "mcf", 3000
	dir := t.TempDir()
	cacheDir, file := filepath.Join(dir, "cache"), filepath.Join(dir, "mcf.thsa")
	if out, err := tracegen("-profile", profile, "-n", strconv.Itoa(accesses), "-cache-dir", cacheDir, "-artifact", file); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}

	c, err := artifact.Open(cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	harness.UseArtifacts(c)
	defer harness.UseArtifacts(nil)
	rec, err := harness.RecordProfile(profile, accesses)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := harness.ArtifactStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("RecordProfile over tracegen's cache: %d hits, %d misses, want 1 hit", st.Hits, st.Misses)
	}

	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	f, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Recorded == nil || !artifact.RecordedEqual(f.Recorded, rec) {
		t.Fatal("the -artifact file is not the recording the harness loads")
	}
}
