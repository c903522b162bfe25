// Command perfbench is the repository's end-to-end benchmark. It drives
// the motifstream deployment from outside, open loop, on inputs generated
// from a seed, checks the delivered pushes against a reference computed
// without the cluster, and prints every metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call it makes into a layer, writes them
// to <workdir>/trace-<workload>.jsonl and reports the per-layer metrics.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload ingest-diamond --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// size is "full"; the self-tests use "tiny".
	size string
	// corrupt drops one push from the reference, so a correct deployment
	// must fail the gate; the self-tests use it.
	corrupt bool
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the measured segment at the nominal rate")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for the deployment's files and the trace")
	flag.Parse()
	opt.size = "full"
	opt.trace = trace == 1
	res, err := runWorkload(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res.print(os.Stdout, opt.trace)
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct   bool
	attempted int
	failed    int
	host      map[string]any
	// problems explains every failed gate.
	problems []string
	e2e      []metric
	layer    []metric
	// info is printed for people and not part of the result object.
	info []string
}

func (r *result) print(f *os.File, trace bool) {
	host, _ := json.Marshal(r.host)
	fmt.Fprintf(f, "host %s\n", host)
	for _, line := range r.info {
		fmt.Fprintln(f, line)
	}
	for _, set := range [][]metric{r.e2e, r.layer} {
		for _, m := range set {
			fmt.Fprintf(f, "%-32s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	chosen := r.e2e
	if trace {
		chosen = r.layer
	}
	for _, m := range chosen {
		ms[m.name] = value{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(f, string(out))
}

func hostShape(opt options, sp spec) map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
		"deployment":  sp.shape(),
		"offered_eps": nominalEPS,
		"ladder_eps":  ladder(),
		"reads":       reads,
		"stream_eps":  streamRate,
		"seed":        opt.seed,
		"seconds":     opt.seconds,
		"size":        opt.size,
		"trace":       opt.trace,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(q*float64(len(xs))+0.999999999) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func runDir(opt options) (string, error) {
	dir := filepath.Join(opt.workdir, fmt.Sprintf("run-%s-%d", opt.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
