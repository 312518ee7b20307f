package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"netorient/internal/core"
	"netorient/internal/graph"
	"netorient/internal/orientd"
	"netorient/internal/program"
	"netorient/internal/spantree"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReducedWorkloadsEmitEveryMetric runs each workload at reduced
// size in both modes and checks that every metric BENCHMARK.json names
// is printed with its unit, that the outputs check out, and that every
// end-to-end value is a positive measurement.
func TestReducedWorkloadsEmitEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
		for _, trace := range []bool{false, true} {
			o, err := run(options{workload: w.Name, seed: 7, seconds: 0.3, trace: trace, small: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := o.report(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, o.checkErrs)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive measurement", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCheckOrientationCatchesSwappedNames shows the service check
// rejects an orientation payload whose names were tampered with.
func TestCheckOrientationCatchesSwappedNames(t *testing.T) {
	g, err := graph.Named("grid:6x6")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceNames(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	good := orientd.Orientation{Legitimate: true, Names: append([]int(nil), ref...)}
	if err := checkOrientation(good, ref); err != nil {
		t.Fatalf("untampered orientation rejected: %v", err)
	}
	swapped := orientd.Orientation{Legitimate: true, Names: append([]int(nil), ref...)}
	swapped.Names[4], swapped.Names[9] = swapped.Names[9], swapped.Names[4]
	if err := checkOrientation(swapped, ref); err == nil {
		t.Fatal("orientation with two swapped names passed the check")
	}
	dup := orientd.Orientation{Legitimate: true, Names: append([]int(nil), ref...)}
	dup.Names[4] = dup.Names[9]
	if err := checkOrientation(dup, ref); err == nil {
		t.Fatal("orientation with a repeated name passed the check")
	}
}

// TestCheckSTNOCatchesCorruptNode shows the cold check rejects a
// stabilized STNO stack once one node is corrupted behind the
// engine's back.
func TestCheckSTNOCatchesCorruptNode(t *testing.T) {
	g, err := graph.Named("grid:6x6")
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSTNO(g, bfs, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := program.NewParallelSystem(s, program.ParallelConfig{Workers: workers, Seed: 1})
	if res, err := ps.RunUntilLegitimate(stepBudget); err != nil || !res.Converged {
		t.Fatalf("stabilize: %+v %v", res, err)
	}
	if err := checkSTNO(g, s, bfs); err != nil {
		t.Fatalf("legitimate stack rejected: %v", err)
	}
	// A single corruption can leave the names and labels valid (it may
	// hit only weights), so corrupt node after node until the check
	// notices; it must notice before the stack is wholly corrupted.
	rng := rand.New(rand.NewSource(5))
	for v := graph.NodeID(1); v < graph.NodeID(g.N()); v++ {
		s.CorruptNode(v, rng)
		if checkSTNO(g, s, bfs) != nil {
			return
		}
	}
	t.Fatal("check passed a stack with every non-root node corrupted")
}
