package main

import (
	"errors"
	"os"
	"os/exec"
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
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "THESAURUS_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
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
