// Command fpgadbg-bench measures debugging-campaign turnaround: four
// seeded workloads timed end to end through an in-process campaign
// service, or — with --trace 1 — replayed layer by layer under spans.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// setupRuns is how many fresh service instances at least set up per
// untraced run (more when set-up is short, see setupFloor); setup_s is
// their median.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	workdir  string
}

func run(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("fpgadbg-bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, each in its own process")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's campaigns are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 prints end-to-end metrics; 1 runs the traced layer replay and prints per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, append the replay's spans to this file as NDJSON")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for the durable workload's stores (removed when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(os.Stderr, "--trace must be 0 or 1 (got %d)\n", o.trace)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "--seconds must be positive (got %v)\n", o.seconds)
		return 2
	}
	if o.workload == "" {
		return runAll(o, stdout)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep, err := runOne(w, o)
	// Removes the work directory only when every store under it is gone;
	// a failure leaves nothing to do.
	_ = os.Remove(o.workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		return 1
	}
	printReport(stdout, w.name, rep)
	if !rep.correct || rep.failed > 0 {
		return 1
	}
	return 0
}

func runOne(w workload, o options) (report, error) {
	p := w.plan(o.seed)
	if o.trace == 0 {
		return measure(w, p, o.seconds, minWindow, setupRuns, o.workdir)
	}
	rep, spans, err := traced(w, p, o.seconds, o.workdir)
	if err != nil || o.traceOut == "" {
		return rep, err
	}
	f, err := os.OpenFile(o.traceOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return rep, err
	}
	if err := writeSpans(f, w.name, o.seed, spans); err != nil {
		f.Close()
		return rep, fmt.Errorf("writing %s: %w", o.traceOut, err)
	}
	return rep, f.Close()
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints one line per metric with its sample count, then the
// result object.
func printReport(w io.Writer, workload string, rep report) {
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]jsonMetric)}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-14s %-36s %16.6g %-10s n=%d\n", workload, m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = jsonMetric{Value: finite(m.value), Unit: m.unit}
	}
	fmt.Fprintf(w, "%-14s correct=%v attempted=%d failed=%d\n", workload, rep.correct, rep.attempted, rep.failed)
	writeJSON(w, res)
}

func writeJSON(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // finite() keeps every value encodable
	}
	fmt.Fprintln(w, string(b))
}

// finite maps the +Inf latency of a failed campaign to the largest
// float, and an undefined value (no samples) to 0, so JSON can carry it.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// runAll runs every workload in its own process, so caches and heap never
// carry over from one workload to the next, and merges their results
// under "<workload>/<metric>".
func runAll(o options, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	all := result{Correct: true, Metrics: make(map[string]jsonMetric)}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe,
			"--workload", w.name,
			"--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(o.trace),
			"--trace-out", o.traceOut,
			"--workdir", o.workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		if err != nil {
			code = 1
		}
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "%s: no result line\n", w.name)
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	writeJSON(stdout, all)
	return code
}
