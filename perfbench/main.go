// Command perfbench is the repository's end-to-end benchmark. It measures
// flowrecond attack sessions over real HTTP and JSONL from outside the
// program and, in a separate traced run, where their time goes layer by
// layer. See README.md in this directory.
//
// Usage, from the repository root (run.sh builds the daemon and this
// command into .bench_build first):
//
//	bash perfbench/run.sh --hot-rate 50 --churn-rate 80 --hot-limit-ms 60 --churn-limit-ms 150 \
//	    --workload sessions-hot --seed 1 --seconds 30 --trace 0
//	.bench_build/perfbench compare a.json ... -- b.json ...
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics BENCHMARK.json names (end-to-end
// metrics untraced, per-layer metrics traced). Every metric the run
// measured, with the host it ran on, is also written to a result file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runOpts are one run's settings.
type runOpts struct {
	workload             string
	seed                 int64
	seconds              time.Duration
	trace                bool
	daemon               string
	results              string
	hotRate, churnRate   float64
	hotLimit, churnLimit time.Duration
}

// result is what a workload measured.
type result struct {
	setupS            float64
	e2e               map[string]float64 // end-to-end metrics by name, untraced runs
	attempted, failed int
	problems          []string // failed correctness checks
	info              string
	timings           map[string]timing // open-loop distributions, with sample counts
	layers            *layers           // traced runs
	tracer            *tracer
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	name  string
	value float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// savedResult is a run's result file.
type savedResult struct {
	Host      hostInfo              `json:"host"`
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Problems  []string              `json:"problems,omitempty"`
	Info      string                `json:"info"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	All       map[string]float64    `json:"all"`
	Timings   map[string]timing     `json:"timings,omitempty"`
	Spans     string                `json:"spans,omitempty"`
}

// unitOf gives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms_per_"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "ratio"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_session"):
		return "B"
	}
	return "count"
}

// endToEnd lists the end-to-end metrics a run reports on its last line:
// the ones BENCHMARK.json bounds, which are those that hold steady when
// other tenants of a shared host take CPU (see README.md). The wall-clock
// session metrics are printed and saved with every run but not bounded.
func endToEnd(r *result) []metricValue {
	out := []metricValue{{"setup_s", r.setupS}}
	for _, n := range []string{"cpu_ms_per_session", "peak_rss_mb"} {
		out = append(out, metricValue{n, r.e2e[n]})
	}
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		a, b, ok := splitSides(os.Args[2:])
		if !ok {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare a.json ... -- b.json ...")
			os.Exit(2)
		}
		if err := compareResults(os.Stdout, a, b); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func splitSides(args []string) (a, b []string, ok bool) {
	for i, s := range args {
		if s == "--" {
			return args[:i], args[i+1:], i > 0 && i < len(args)-1
		}
	}
	return nil, nil, false
}

func parse(args []string) (runOpts, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o runOpts
	var seconds, trace int
	var hotLimit, churnLimit float64
	fs.StringVar(&o.workload, "workload", "", "sessions-hot or sessions-churn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 30, "measured run time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.daemon, "daemon", filepath.Join(".bench_build", "flowrecond"), "flowrecond binary")
	fs.StringVar(&o.results, "results", filepath.Join(".bench_build", "results"), "directory for result and span files")
	fs.Float64Var(&o.hotRate, "hot-rate", 0, "sessions-hot open-loop offered rate, sessions/s")
	fs.Float64Var(&o.churnRate, "churn-rate", 0, "sessions-churn open-loop offered rate, sessions/s")
	fs.Float64Var(&hotLimit, "hot-limit-ms", 0, "sessions-hot session latency limit for within_slo_frac, ms")
	fs.Float64Var(&churnLimit, "churn-limit-ms", 0, "sessions-churn session latency limit for within_slo_frac, ms")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return o, errors.New("need --seconds ≥ 1 and --trace 0 or 1")
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	o.hotLimit = time.Duration(hotLimit * float64(time.Millisecond))
	o.churnLimit = time.Duration(churnLimit * float64(time.Millisecond))
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return fmt.Errorf("flowrecond binary: %w (build it with perfbench/run.sh)", err)
	}
	var res *result
	switch o.workload {
	case "sessions-hot":
		res, err = runSessions(o, hotWorkload(o))
	case "sessions-churn":
		res, err = runSessions(o, churnWorkload(o))
	default:
		return fmt.Errorf("unknown workload %q (sessions-hot, sessions-churn)", o.workload)
	}
	if err != nil {
		return err
	}
	return report(stdout, o, res)
}

// report prints the human-readable tables, writes the result file, and
// prints the JSON line last.
func report(w io.Writer, o runOpts, res *result) error {
	host := currentHost()
	saved := savedResult{Host: host, Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(),
		Trace: o.trace, Info: res.info, All: map[string]float64{}, Metrics: map[string]jsonMetric{}, Timings: res.timings}
	fmt.Fprintf(w, "perfbench %s seed %d trace %v: %s\n", o.workload, o.seed, o.trace, res.info)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit)

	var out []metricValue
	if res.tracer != nil {
		spans := res.tracer.rec.Spans()
		sum, total := selfTable(w, spans, res.layers.untracedE2E, res.layers.overhead(), res.layers.scaled)
		res.layers.tracedE2E = total
		if math.Abs(sum-total) > 1e-6*math.Max(total, 1) {
			res.problem("self times sum to %.9f s, traced end-to-end time is %.9f s", sum, total)
		}
		path, err := res.tracer.writeSpans(o.results, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
		if err != nil {
			return err
		}
		saved.Spans = path
		fmt.Fprintln(w, "per-layer metrics:")
		for _, m := range res.layers.metrics() {
			out = append(out, m)
			fmt.Fprintf(w, "  %-36s %16.6f %s\n", m.name, m.value, unitOf(m.name))
			saved.All[m.name] = m.value
		}
	} else {
		fmt.Fprintln(w, "end-to-end metrics:")
		fmt.Fprintf(w, "  %-20s %14.6f %s\n", "setup_s", res.setupS, "s")
		saved.All["setup_s"] = res.setupS
		for _, name := range e2eOrder {
			v, ok := res.e2e[name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-20s %14.6f %s\n", name, v, unitOf(name))
			if !math.IsNaN(v) { // NaN: too few samples for the percentile
				saved.All[name] = v
			}
		}
		for _, name := range []string{"session_ms", "first_probe_ms", "gen_late_ms"} {
			if t, ok := res.timings[name]; ok {
				fmt.Fprintf(w, "  %-20s n=%d, tail at p%g\n", name, t.N, 100*t.TailQ)
			}
		}
		out = endToEnd(res)
	}
	for _, m := range out {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.problem("metric %s is %v", m.name, m.value)
			m.value = 0
		}
		saved.Metrics[m.name] = jsonMetric{Value: m.value, Unit: unitOf(m.name)}
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	saved.Correct, saved.Attempted, saved.Failed, saved.Problems = len(res.problems) == 0, res.attempted, res.failed, res.problems
	if err := os.MkdirAll(o.results, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(saved, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.results, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, btoi(o.trace)))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "result file:", path)
	last, err := json.Marshal(line{Correct: saved.Correct, Attempted: res.attempted, Failed: res.failed, Metrics: saved.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(last))
	return err
}

// e2eOrder is the print order of the end-to-end metrics.
var e2eOrder = []string{
	"sessions_per_s", "session_p50_ms", "session_p99_ms",
	"first_probe_p50_ms", "first_probe_p99_ms", "within_slo_frac", "failed_frac",
	"peak_rss_mb", "gen_late_p99_ms", "cpu_ms_per_session", "host_steal_frac",
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
