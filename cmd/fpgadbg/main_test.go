package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the fpgadbg command: with
// FPGADBG_RUN_MAIN=1 the process executes main with its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FPGADBG_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLocalRunValidatesSpec checks that a local run rejects the same
// malformed campaign specs the daemon rejects, before doing any work.
func TestLocalRunValidatesSpec(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-design", "9sym", "-kind", "faultscan", "-patterns", "-5"}, "patterns"},
		{[]string{"-design", "9sym", "-kind", "faultscan", "-sim-lanes", "100"}, "sim_lanes"},
		{[]string{"-design", "9sym", "-sim-lanes", "100"}, "sim_lanes"},
		{[]string{"-design", "9sym", "-kind", "fixit"}, "kind"},
		{[]string{"-design", "9sym", "-fault-model", "pair"}, "fault model"},
		{[]string{"-design", "9sym", "-kind", "faultscan", "-overlay"}, "overlay"},
		{[]string{"-design", "9sym", "-words", "1152921504606846976"}, "words"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "FPGADBG_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: want exit status 1, got %v\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: error does not mention %q:\n%s", tc.args, tc.want, out)
		}
	}
}
