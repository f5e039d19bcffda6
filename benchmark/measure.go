package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/service"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/store"
	"fpgadbg/internal/synth"
)

// campaignTimeout bounds one campaign; one that outlives it is canceled
// and counted as failed.
const campaignTimeout = 60 * time.Second

// serialSample is how many faults of each faultscan spec are re-scanned
// one at a time as the lane engine's oracle.
const serialSample = 128

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is the outcome of one run of one workload.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

// instance is one service under test; durable instances own a store
// directory that is removed on close.
type instance struct {
	svc *service.Service
	dir string
}

// openInstance starts a fresh service with one worker and telemetry off,
// on an fsynced disk store under workdir when the workload is durable.
func openInstance(w workload, workdir string) (*instance, error) {
	cfg := service.Config{Workers: 1, NoTelemetry: true}
	if !w.durable {
		return &instance{svc: service.New(cfg)}, nil
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg.Store = st
	svc, err := service.Open(cfg)
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &instance{svc: svc, dir: dir}, nil
}

// close stops the service, which also closes its store, then removes the
// store directory.
func (in *instance) close() {
	in.svc.Close()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// campaign is one submitted spec and what came back.
type campaign struct {
	spec    service.Spec
	res     *service.Result
	err     error
	latency time.Duration
}

// runCampaign submits sp and waits for it: the latency a closed-loop
// client sees, from Submit until Wait returns.
func runCampaign(svc *service.Service, sp service.Spec) campaign {
	start := time.Now()
	id, err := svc.Submit(sp)
	if err != nil {
		return campaign{spec: sp, err: fmt.Errorf("refused: %w", err), latency: time.Since(start)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	res, err := svc.Wait(ctx, id)
	lat := time.Since(start)
	if err != nil {
		// A timed-out campaign is stopped so it cannot hold the only
		// worker; Cancel fails only for unknown IDs.
		_ = svc.Cancel(id)
	}
	return campaign{spec: sp, res: res, err: err, latency: lat}
}

// checker counts attempts and failures and flags wrong results: a debug
// or repair campaign that detected its bug but did not end clean, and a
// spec whose digest changed within the run. Faultscan results are kept
// for the universe and serial-oracle checks in verify.
type checker struct {
	attempted int
	failed    int
	wrong     []string
	digests   map[service.Spec]string
	scans     map[service.Spec]*service.Result
}

func newChecker() *checker {
	return &checker{digests: make(map[service.Spec]string), scans: make(map[service.Spec]*service.Result)}
}

func (ck *checker) note(c campaign) {
	ck.attempted++
	if c.err != nil {
		ck.failed++
		fmt.Fprintf(os.Stderr, "campaign %s failed: %v\n", describe(c.spec), c.err)
		return
	}
	r := c.res
	if c.spec.Kind != service.KindFaultScan && r.Detected && !r.Clean {
		ck.flag(c.spec, "bug detected but the loop did not end clean")
	}
	if d, ok := ck.digests[c.spec]; !ok {
		ck.digests[c.spec] = r.Digest
	} else if d != r.Digest {
		ck.flag(c.spec, fmt.Sprintf("digest %s differs from the earlier %s", r.Digest, d))
	}
	if c.spec.Kind == service.KindFaultScan && ck.scans[c.spec] == nil {
		ck.scans[c.spec] = r
	}
}

func (ck *checker) flag(sp service.Spec, why string) {
	ck.wrong = append(ck.wrong, fmt.Sprintf("%s: %s", describe(sp), why))
}

// verify re-checks every faultscan result against the benchmark's own
// scan of the full universe, and the lane engine against the serial
// one-mutant-at-a-time oracle on a stride sample of serialSample faults.
func (ck *checker) verify() error {
	specs := make([]service.Spec, 0, len(ck.scans))
	for sp := range ck.scans {
		specs = append(specs, sp)
	}
	slices.SortFunc(specs, func(a, b service.Spec) int { return strings.Compare(describe(a), describe(b)) })
	goldens := make(map[string]*netlist.Netlist)
	for _, sp := range specs {
		g, ok := goldens[sp.Design]
		if !ok {
			var err error
			if g, err = mappedGolden(sp.Design); err != nil {
				return err
			}
			goldens[sp.Design] = g
		}
		prog, err := sim.CompileWidth(g, sp.SimLanes/64)
		if err != nil {
			return err
		}
		cfg := faults.ScanConfig{Patterns: sp.Patterns, Cycles: sp.Cycles, Seed: sp.Seed}
		u := faults.Universe(g)
		all, err := faults.Scan(prog, u, cfg)
		if err != nil {
			return err
		}
		detected := 0
		for _, r := range all {
			if r.Detected {
				detected++
			}
		}
		if r := ck.scans[sp]; r.FaultsTotal != len(u) || r.FaultsDetected != detected {
			ck.flag(sp, fmt.Sprintf("service detected %d/%d faults, own scan %d/%d",
				r.FaultsDetected, r.FaultsTotal, detected, len(u)))
		}
		sample := strideSample(u, serialSample)
		lane, err := faults.Scan(prog, sample, cfg)
		if err != nil {
			return err
		}
		serial, err := faults.SerialScan(prog, sample, cfg)
		if err != nil {
			return err
		}
		for i := range sample {
			if lane[i].Syndrome != serial[i].Syndrome {
				ck.flag(sp, fmt.Sprintf("lane and serial scans disagree on %s", sample[i].Describe(g)))
				break
			}
		}
	}
	return nil
}

// mappedGolden is the technology-mapped golden netlist of a catalog
// design, built the way the service builds it.
func mappedGolden(design string) (*netlist.Netlist, error) {
	info, err := bench.ByName(design)
	if err != nil {
		return nil, err
	}
	return synth.TechMap(info.Build())
}

// strideSample picks n faults spread evenly over fs.
func strideSample(fs []faults.Fault, n int) []faults.Fault {
	if len(fs) <= n {
		return fs
	}
	out := make([]faults.Fault, n)
	for i := range out {
		out[i] = fs[i*len(fs)/n]
	}
	return out
}

// heapAfter is the window campaign after which the live heap is sampled.
// Cached layouts and retained campaign records grow with every campaign,
// so a fixed count keeps the figure independent of how fast the window
// ran; every untraced window reaches it (minWindow > heapAfter).
const heapAfter = 50

// latencies is every window campaign's latency in ms, from Submit until
// Wait returned, with +Inf for a failed campaign.
func latencies(window []campaign) []float64 {
	lat := make([]float64, len(window))
	for i, c := range window {
		lat[i] = math.Inf(1)
		if c.err == nil {
			lat[i] = msOf(c.latency)
		}
	}
	return lat
}

func liveHeapMiB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// A short set-up is set up again until the set-ups together took
// setupFloor, at most maxSetups times, so that a median of sub-second
// set-ups does not hang on which of three fell into a slow stretch of
// the host.
const (
	setupFloor = 2 * time.Second
	maxSetups  = 9
)

// measure is the untraced run: at least setups fresh service instances
// each construct and warm up (set-up time is their median), then the
// last one serves the window — a closed loop with one client for the
// given duration, extended until at least minCampaigns have finished.
// The correctness checks run after the window, untimed.
func measure(w workload, p plan, seconds float64, minCampaigns, setups int, workdir string) (report, error) {
	ck := newChecker()
	var setupS []float64
	var setupTotal time.Duration
	var inst *instance
	for i := 0; i < setups || (i < maxSetups && setupTotal < setupFloor); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = openInstance(w, workdir); err != nil {
			return report{}, err
		}
		for _, sp := range p.warmup {
			ck.note(runCampaign(inst.svc, sp))
		}
		d := time.Since(start)
		setupTotal += d
		setupS = append(setupS, d.Seconds())
	}
	defer inst.close()

	// The window's wall time runs from the first Submit to the last Wait;
	// the heap sample taken inside it is not part of it.
	var window []campaign
	var heap float64
	var sampling time.Duration
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < minCampaigns; i++ {
		c := runCampaign(inst.svc, p.window[i%len(p.window)])
		ck.note(c)
		if window = append(window, c); len(window) == heapAfter {
			t := time.Now()
			heap = liveHeapMiB()
			sampling = time.Since(t)
		}
	}
	wall := time.Since(start) - sampling
	if len(window) < heapAfter {
		heap = liveHeapMiB()
		fmt.Fprintf(os.Stderr, "warning: only %d window campaigns; the heap was sampled at the end\n", len(window))
	}

	if err := ck.verify(); err != nil {
		return report{}, err
	}
	lat := latencies(window)
	done := 0
	for _, c := range window {
		if c.err == nil {
			done++
		}
	}
	p50, _ := percentile(lat, 0.50)
	p90, ok := percentile(lat, 0.90)
	if !ok {
		fmt.Fprintf(os.Stderr, "warning: only %d window campaigns; p90 has fewer than %d samples beyond it\n", len(lat), minTail)
	}
	return ck.report([]metric{
		{"campaigns_per_s", float64(done) / wall.Seconds(), "1/s", done},
		{"latency_p50_ms", p50, "ms", len(lat)},
		{"latency_p90_ms", p90, "ms", len(lat)},
		{"setup_s", median(setupS), "s", len(setupS)},
		{"live_heap_mb", heap, "MiB", min(len(window), heapAfter)},
	}), nil
}

// report wraps metrics with the checker's verdict.
func (ck *checker) report(ms []metric) report {
	for _, why := range ck.wrong {
		fmt.Fprintln(os.Stderr, "wrong:", why)
	}
	return report{
		correct:   len(ck.wrong) == 0,
		attempted: ck.attempted,
		failed:    ck.failed,
		metrics:   ms,
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// describe names a spec in diagnostics.
func describe(sp service.Spec) string {
	s := fmt.Sprintf("%s/%s", sp.Design, sp.Kind)
	if sp.Kind == service.KindFaultScan {
		return s + fmt.Sprintf(" lanes=%d seed=%d", sp.SimLanes, sp.Seed)
	}
	s += fmt.Sprintf(" fault_seed=%d", sp.FaultSeed)
	if sp.Overlay {
		s += fmt.Sprintf(" overlay words=%d", sp.Words)
	}
	return s
}
