package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	res, err := runWorkload(options{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		workdir: t.TempDir(), size: "tiny", corrupt: corrupt,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func hasProblem(res *result, prefix string) bool {
	for _, p := range res.problems {
		if strings.HasPrefix(p, prefix) {
			return true
		}
	}
	return false
}

// TestTinyRunsReportEveryMetric runs each listed workload at tiny size and
// checks that it reports every metric BENCHMARK.json names, with its unit,
// and delivers exactly the reference's pushes.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the deployments")
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, false)
			got := map[string]string{}
			want := bf.EndToEnd
			for _, m := range res.e2e {
				got[m.name] = m.unit
			}
			if trace {
				got = map[string]string{}
				want = bf.PerLayer
				for _, m := range res.layer {
					got[m.name] = m.unit
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s reported with unit %q (present %v), want %q", w.Name, trace, m.Name, unit, ok, m.Unit)
				}
			}
			if hasProblem(res, "delivered pushes differ") || res.attempted < 1 {
				t.Errorf("%s trace=%v: problems %v, attempted %d", w.Name, trace, res.problems, res.attempted)
			}
		}
	}
}

// TestCorruptedReferenceFailsTheGate drops one push from the reference; the
// gate must report the deployment's delivered set as wrong.
func TestCorruptedReferenceFailsTheGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the deployments")
	}
	res := tinyRun(t, "ingest-diamond", false, true)
	if res.correct || res.failed == 0 || !hasProblem(res, "delivered pushes differ") {
		t.Fatalf("corrupted reference passed the gate: correct=%v failed=%d problems=%v", res.correct, res.failed, res.problems)
	}
}

func TestCoveredUnionsOverlaps(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 40}}
	if got := covered(ivs, 0, 35); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
}
