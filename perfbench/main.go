// Command perfbench is DiagNet's end-to-end benchmark. It trains (or
// reuses) a paper-width model bundle, boots an in-process fleet — a cluster.Router in front of two analysis.Server replicas on
// loopback HTTP — and drives it for a fixed window with one of three
// workloads, checking every answer against an in-process reference.
//
//	bash perfbench/run.sh --workload online --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records the benchmark's own spans and times direct calls into each
// layer, and reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The full result, with the environment stamp, is also written under
// .bench_build/results/. See README.md for the workloads and the metric
// map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metricDef struct {
	name, unit, better string
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in report
// order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"slo_attainment", "ratio", "higher"},
	{"success_rate", "ratio", "higher"},
	{"recall_at_1", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"cluster.self_p50_ms", "ms", "lower"},
	{"cluster.attempts_per_req", "count", "lower"},
	{"cluster.scatter_self_ms", "ms", "lower"},
	{"analysis.handler_p50_ms", "ms", "lower"},
	{"analysis.handler_p99_ms", "ms", "lower"},
	{"analysis.codec_us", "us", "lower"},
	{"serving.batch_size_mean", "count", "higher"},
	{"serving.batch_wait_p50_ms", "ms", "lower"},
	{"serving.submit_p50_ms", "ms", "lower"},
	{"serving.shed", "count", "lower"},
	{"serving.promote_s", "s", "lower"},
	{"core.diagnose_p50_us", "us", "lower"},
	{"core.batch64_us_per_sample", "us", "lower"},
	{"core.stage.normalize_us", "us", "lower"},
	{"core.stage.forward_gradient_us", "us", "lower"},
	{"core.stage.weighting_us", "us", "lower"},
	{"core.stage.ensemble_us", "us", "lower"},
	{"core.alloc_bytes_per_diagnose", "bytes", "lower"},
	{"core.allocs_per_diagnose", "count", "lower"},
	{"core.retrain_s", "s", "lower"},
	{"core.specialize_s", "s", "lower"},
	{"nn.forward_us", "us", "lower"},
	{"nn.input_gradient_us", "us", "lower"},
	{"nn.train_epoch_s", "s", "lower"},
	{"forest.scores_us", "us", "lower"},
	{"continual.store_ingest_us", "us", "lower"},
	{"continual.export_ms", "ms", "lower"},
	{"learn.adapt_s", "s", "lower"},
	{"learn.ingest_p99_ms", "ms", "lower"},
	{"gc.cpu_fraction", "ratio", "lower"},
	{"gc.pause_p99_us", "us", "lower"},
	{"trace.req_p50_ms", "ms", "lower"},
	{"trace.req_p99_ms", "ms", "lower"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: online, bulk or learn")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fixtureOut := fs.String("build-fixture", "", "train the paper-width fixture bundle into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fixtureOut != "" {
		if err := buildFixture(*fixtureOut, paperSize); err != nil {
			fmt.Fprintln(stderr, "perfbench: build fixture:", err)
			return 1
		}
		return 0
	}
	p, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload online|bulk|learn, --seconds > 0 and --trace 0|1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// The replicas and the router log every readiness change at info.
	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	res, err := runBench(benchConfig{root: root, workload: p, seed: *seed, seconds: *seconds, trace: *trace == 1, size: paperSize})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, root, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints a readable table, saves the full result and ends with the
// summary line. A metric that could not be measured makes the run
// incorrect rather than printing a made-up number.
func report(w io.Writer, root string, res *result) error {
	defs, values := endToEnd, res.EndToEnd
	if res.Env.Trace {
		defs, values = perLayer, res.PerLayer
	}
	sum := summary{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%t\n", res.Env.Workload, res.Env.Seed, res.Env.Params.Seconds, res.Env.Trace)
	env, err := json.Marshal(res.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintf(w, "%-32s %14s  %-6s %s\n", "metric", "value", "unit", "better")
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s not measured", m.name)
			v = 0
		}
		sum.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-32s %14.4f  %-6s %s\n", m.name, v, m.unit, m.better)
	}
	keys := make([]string, 0, len(res.Details))
	for k := range res.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "detail %-25s %14.4f\n", k, res.Details[k])
	}
	if res.Env.Trace {
		if base, ok := untracedResult(root, res); ok {
			fmt.Fprintf(w, "tracing overhead: req_p50 %.3fx, req_p99 %.3fx of the untraced run of this seed\n",
				res.EndToEnd["req_p50_ms"]/base.EndToEnd["req_p50_ms"], res.Details["req_p99_ms"]/base.Details["req_p99_ms"])
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "error %s\n", e)
	}
	res.Correct = len(res.Problems) == 0
	for _, p := range res.Problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	sum.Correct = res.Correct
	if err := saveResult(root, res); err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func resultPath(root string, env envStamp, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(root, ".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, t))
}

func saveResult(root string, res *result) error {
	path := resultPath(root, res.Env, res.Env.Trace)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// untracedResult loads the untraced result of the same workload, seed and
// code, if one was saved, to report the tracing overhead against.
func untracedResult(root string, res *result) (*result, bool) {
	b, err := os.ReadFile(resultPath(root, res.Env, false))
	if err != nil {
		return nil, false
	}
	var base result
	if json.Unmarshal(b, &base) != nil || base.Env.SourceDigest != res.Env.SourceDigest || base.EndToEnd["req_p50_ms"] == 0 {
		return nil, false
	}
	return &base, true
}
