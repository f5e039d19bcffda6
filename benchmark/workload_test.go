package main

import (
	"reflect"
	"testing"

	"fpgadbg/internal/service"
)

func TestPlansAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		if !reflect.DeepEqual(w.plan(3), w.plan(3)) {
			t.Errorf("%s: two plans from seed 3 differ", w.name)
		}
	}
}

func TestSeedsChangeTheInputs(t *testing.T) {
	seeds := []int64{2, 3, 4, 5}
	for _, w := range workloads {
		plans := make([]plan, len(seeds))
		for i, s := range seeds {
			plans[i] = w.plan(s)
		}
		for i := range plans {
			for j := i + 1; j < len(plans); j++ {
				if reflect.DeepEqual(plans[i].window[:64], plans[j].window[:64]) {
					t.Errorf("%s: seeds %d and %d open the window identically", w.name, seeds[i], seeds[j])
				}
			}
		}
	}
	// fresh-bugs draws its bugs from the seed: no fault seed is shared
	// between the runs of different seeds.
	w, _ := workloadByName("fresh-bugs")
	owner := make(map[int64]int64)
	for _, s := range seeds {
		p := w.plan(s)
		for _, sp := range append(p.warmup, p.window...) {
			if prev, ok := owner[sp.FaultSeed]; ok && prev != s {
				t.Fatalf("fault seed %d drawn by seeds %d and %d", sp.FaultSeed, prev, s)
			}
			owner[sp.FaultSeed] = s
		}
	}
}

func TestFreshBugsNeverRepeatABug(t *testing.T) {
	w, _ := workloadByName("fresh-bugs")
	p := w.plan(1)
	seen := make(map[int64]bool)
	for i, sp := range append(p.warmup, p.window...) {
		if seen[sp.FaultSeed] {
			t.Fatalf("fault seed %d repeats at campaign %d", sp.FaultSeed, i)
		}
		seen[sp.FaultSeed] = true
	}
}

// TestCorpusWarmsEachSpecOnce checks that the warm-up of each corpus
// workload holds every spec of the window exactly once, so set-up builds
// everything the window uses and nothing more.
func TestCorpusWarmsEachSpecOnce(t *testing.T) {
	for name, specs := range map[string]int{"rerun-probe": 18, "quick-overlay": 30, "faultscan": 8} {
		w, _ := workloadByName(name)
		p := w.plan(1)
		warm := make(map[service.Spec]int)
		for _, sp := range p.warmup {
			warm[sp]++
		}
		for sp, n := range warm {
			if n != 1 {
				t.Errorf("%s: %s warms up %d times", name, describe(sp), n)
			}
		}
		for _, sp := range p.window {
			if warm[sp] == 0 {
				t.Fatalf("%s: window spec %s is not warmed up", name, describe(sp))
			}
		}
		if len(warm) != specs {
			t.Errorf("%s: %d distinct specs, want %d", name, len(warm), specs)
		}
	}
}

func TestEverySpecValidates(t *testing.T) {
	for _, w := range workloads {
		p := w.plan(1)
		for _, sp := range append(p.warmup, p.window...) {
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s: %s: %v", w.name, describe(sp), err)
			}
			if w.durable != sp.Overlay {
				t.Fatalf("%s: %s: only the durable workload runs on the overlay", w.name, describe(sp))
			}
			if sp.Kind != service.KindFaultScan && (sp.Words == 0 || sp.SimLanes == 0 || sp.MaxIters == 0) {
				t.Fatalf("%s: %s leaves a knob to a service default", w.name, describe(sp))
			}
		}
	}
}
