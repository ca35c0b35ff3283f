// Command ldbench is the repository's layered performance benchmark.
// It runs one named workload, prints every end-to-end metric by name
// with its unit, checks the program's outputs, and ends with one JSON
// line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it runs the workload twice over the same inputs —
// untraced, then traced through the benchmark's own wrappers around
// the program's exported layers — checks that the traced pass
// reproduces the untraced one, and reports the per-layer metrics
// instead. See README.md for the workloads, the metrics and which
// layer should move which end-to-end number.
//
// Build and run it from the repository root with bench/run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEndMetrics are reported by every workload with -trace 0. Each
// workload names its own unit of work: a GA generation (ga-paper51), a
// scanned window (sweep-wide, whose latency unit is one shard of
// windows) or a served job (serve-jobs).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.1},
}

// perLayerMetrics are reported by every workload with -trace 1; a
// layer the workload does not reach reads 0.
var perLayerMetrics = []metricDef{
	{name: "ehdiall.calls", unit: "count", better: "lower"},
	{name: "ehdiall.self_ms", unit: "ms", better: "lower"},
	{name: "ehdiall.us_per_call.k2", unit: "us", better: "lower"},
	{name: "ehdiall.us_per_call.k3", unit: "us", better: "lower"},
	{name: "ehdiall.us_per_call.k4", unit: "us", better: "lower"},
	{name: "ehdiall.us_per_call.k5", unit: "us", better: "lower"},
	{name: "ehdiall.us_per_call.k6", unit: "us", better: "lower"},
	{name: "ehdiall.iters_mean.k2", unit: "count", better: "lower"},
	{name: "ehdiall.iters_mean.k3", unit: "count", better: "lower"},
	{name: "ehdiall.iters_mean.k4", unit: "count", better: "lower"},
	{name: "ehdiall.iters_mean.k5", unit: "count", better: "lower"},
	{name: "ehdiall.iters_mean.k6", unit: "count", better: "lower"},
	{name: "ehdiall.nonconverged_ratio", unit: "ratio", better: "lower"},
	{name: "ehdiall.group_us_per_call", unit: "us", better: "lower"},
	{name: "clump.calls", unit: "count", better: "lower"},
	{name: "clump.self_ms", unit: "ms", better: "lower"},
	{name: "shard.calls", unit: "count", better: "lower"},
	{name: "shard.self_ms", unit: "ms", better: "lower"},
	{name: "shard.gather_ms", unit: "ms", better: "lower"},
	{name: "engine.requests", unit: "count", better: "lower"},
	{name: "engine.computed", unit: "count", better: "lower"},
	{name: "engine.hit_ratio", unit: "ratio", better: "higher"},
	{name: "engine.coalesced", unit: "count", better: "higher"},
	{name: "engine.batches", unit: "count", better: "lower"},
	{name: "engine.batch_ms", unit: "ms", better: "lower"},
	{name: "engine.busy_ratio", unit: "ratio", better: "higher"},
	{name: "engine.self_ms", unit: "ms", better: "lower"},
	{name: "core.generations", unit: "count", better: "lower"},
	{name: "core.batch_size_mean", unit: "count", better: "lower"},
	{name: "core.self_ms", unit: "ms", better: "lower"},
	{name: "ga.best_fitness", unit: "T1", better: "higher"},
	{name: "ga.evals_to_best", unit: "count", better: "lower"},
	{name: "serve.post_job_ms", unit: "ms", better: "lower"},
	{name: "serve.stream_ms", unit: "ms", better: "lower"},
	{name: "serve.get_job_ms", unit: "ms", better: "lower"},
	{name: "serve.server_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.server_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.alloc_kb_per_job", unit: "KB", better: "lower"},
	{name: "serve.job_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.read_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.read_p99_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.unaccounted_ms", unit: "ms", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

// params is one invocation's inputs.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check.
	problems []string
	e2e      map[string]float64 // with -trace 0
	layer    map[string]float64 // with -trace 1
	spans    []span             // the traced pass's spans
	// samples is a human-readable line of sample counts.
	samples string
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, p params) (*outcome, error)

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = map[string]workloadFunc{
	"ga-paper51": runGA,
	"sweep-wide": runSweep,
	"serve-jobs": runServe,
}

// deadline bounds one invocation below the 180 s a run may take.
const deadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ga-paper51, sweep-wide or serve-jobs")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced pass writes its spans to")
	tiny := fs.Bool("tiny", false, "shrink the workload to a smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ldbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny}
	env := environment(*name, p)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(stdout, string(envLine))

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	o, err := w(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "ldbench: %s: %v\n", *name, err)
		return 1
	}
	if p.trace && len(o.spans) > 0 {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", *name, p.seed))
		if err := writeSpans(path, env, o.spans); err != nil {
			fmt.Fprintf(stderr, "ldbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(o.spans), path)
	}
	return report(stdout, stderr, p, o)
}

// report prints the metrics and the result line; it returns the exit
// code: 1 when an output check or an operation failed.
func report(stdout, stderr io.Writer, p params, o *outcome) int {
	defs, values := endToEndMetrics, o.e2e
	if p.trace {
		defs, values = perLayerMetrics, o.layer
	}
	if o.samples != "" {
		fmt.Fprintln(stdout, "samples:", o.samples)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.checkf(false, "metric %s not measured", d.name)
			v = 0
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-30s %16.6f %s\n", d.name, v, d.unit)
	}
	for _, msg := range o.problems {
		fmt.Fprintln(stderr, "ldbench: check failed:", msg)
	}
	correct := len(o.problems) == 0
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, max(o.attempted, 1), o.failed, metrics})
	fmt.Fprintln(stdout, string(line))
	if !correct || o.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment records what produced the numbers: the inputs and the
// machine shape.
func environment(name string, p params) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       p.seed,
		"seconds":    p.seconds,
		"trace":      p.trace,
		"tiny":       p.tiny,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

// mix derives the i-th input seed from the workload seed (splitmix64),
// so every generated input depends on the seed argument alone.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// allocBytes returns the bytes allocated by the process so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeSetup runs setup reps times and returns the median wall time in
// seconds; close releases every instance but the last, which the
// measured phase uses.
func timeSetup[T any](reps int, setup func() (T, error), close func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			close(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}
