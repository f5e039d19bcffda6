package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fpgadbg/internal/obs"
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

// runMain runs this binary as the fpgadbg command and fails the test
// unless it exits cleanly.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPGADBG_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestLocalRunMatchesPinnedDigests checks that a local run goes through
// the service pipeline: it prints the digests internal/service pins for
// the same specs (digestpin_test.go).
func TestLocalRunMatchesPinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		digest string
	}{
		{[]string{"-design", "9sym", "-fault-seed", "3", "-tilefrac", "0.25", "-effort", "0.3", "-words", "4", "-cycles", "2"}, "c11c10d7fb1efe15"},
		{[]string{"-design", "9sym", "-kind", "repair", "-fault-seed", "2", "-tilefrac", "0.25", "-effort", "0.5", "-words", "4", "-cycles", "2"}, "05fb2c25349fa1c7"},
		{[]string{"-design", "9sym", "-kind", "faultscan", "-patterns", "64", "-cycles", "2"}, "6282a77116797674"},
	} {
		out := runMain(t, tc.args...)
		if !strings.Contains(out, "; digest "+tc.digest+"\n") {
			t.Errorf("%v: result does not carry digest %s:\n%s", tc.args, tc.digest, out)
		}
	}
}

// TestLocalFaultscanTraceOut checks that -trace-out works for a local
// faultscan: one StageTrace NDJSON line naming the campaign's kind.
func TestLocalFaultscanTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	runMain(t, "-design", "9sym", "-kind", "faultscan", "-patterns", "64", "-trace-out", path)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one trace line, got %d:\n%s", len(lines), blob)
	}
	var st obs.StageTrace
	if err := json.Unmarshal([]byte(lines[0]), &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "faultscan" || len(st.Stages) == 0 {
		t.Errorf("trace kind %q with %d stages, want a faultscan trace with stages", st.Kind, len(st.Stages))
	}
}
