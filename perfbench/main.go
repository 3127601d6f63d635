// Command perfbench drives the rvm engine through its public API with the
// workloads described in README.md and prints one JSON result line.
//
//	perfbench --workload tpca --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// every call the workload makes into a layer is wrapped in a span and the
// result holds the per-layer metrics instead.  The line before the result
// carries the host fingerprint, the correctness checks and the op-sequence
// hash.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics are the values a run reports, by name.
type metrics map[string]metric

func (ms metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ms[name] = metric{Value: v, Unit: unit}
}

// config is what every workload receives.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	negative bool   // cut the crash image's log before checking
	work     string // working directory for stores and images
	out      string // directory for trace files
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted int64
	failed    int64
	lost      int64 // acknowledged ops missing after the crash image reopened
	checks    []check
	opHash    string
	e2e       metrics // --trace 0
	layers    metrics // --trace 1
	selfTime  []layerRow
	traceFile string
	window    map[string]float64 // what the measurement window spanned
}

// check is one named correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

var workloads = map[string]func(config) (*outcome, error){
	"tpca":    runTPCA,
	"kv":      runKV,
	"restart": runRestart,
}

func main() {
	workload := flag.String("workload", "", "tpca, kv or restart")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	negative := flag.Bool("negative", false, "cut the crash image's log short; the checker must then report lost ops")
	dir := flag.String("dir", ".bench_build", "directory for working stores and trace files")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *workload)
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(*dir, "work-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fail(err)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, negative: *negative, work: work, out: *dir}
	host := fingerprint(work)
	steal0, total0 := stealTicks()
	o, err := run(cfg)
	if steal1, total1 := stealTicks(); total1 > total0 {
		host.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	os.RemoveAll(work)
	if err != nil {
		fail(err)
	}

	correct := o.lost == 0
	for _, c := range o.checks {
		correct = correct && c.OK
	}
	ms, defs := o.e2e, endToEnd
	if cfg.trace {
		ms, defs = o.layers, perLayer
	}
	ms.complete(defs)
	printTable(ms, defs, o.selfTime)
	detail := map[string]any{
		"workload":        *workload,
		"seed":            *seed,
		"trace":           *trace,
		"host":            host,
		"op_hash":         o.opHash,
		"checks":          o.checks,
		"lost_acked_ops":  o.lost,
		"failed_op_ratio": float64(o.failed) / float64(max(o.attempted, 1)),
		"window":          o.window,
	}
	if o.traceFile != "" {
		detail["trace_file"] = o.traceFile
		detail["self_time"] = o.selfTime
	}
	emit(detail)
	emit(map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   ms,
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// printTable writes the metrics with their units and directions, and the
// self-time table when traced, to stderr for people; stdout stays
// machine-readable.
func printTable(ms metrics, defs []metricDef, rows []layerRow) {
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-38s %16.4f %-6s (%s is better)\n", d.name, ms[d.name].Value, d.unit, d.better)
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "\n%-10s %10s %12s %8s\n", "layer", "calls", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-10s %10d %12.2f %8.4f\n", r.Layer, r.Calls, r.SelfMs, r.Share)
	}
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastest is the fast quartile of samples of a time or a cost, where
// lower is better: their first quartile.  Every sample of a run measures
// the same program on the same inputs, and a neighbour on a shared host
// only ever makes a sample slower, never faster; so the fast quartile
// follows the program and ignores host noise that holds fewer than three
// quarters of a run's samples, where the median is moved by noise that
// holds a quarter of them.
func fastest(xs []float64) float64 { return quantile(xs, 0.25) }

// fastestRate is fastest for a rate, where higher is better: the third
// quartile.
func fastestRate(xs []float64) float64 { return quantile(xs, 0.75) }

// hostInfo stamps a result with what it was measured on.
type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	FsyncP50us float64 `json:"fsync_p50_us"`
	StealPct   float64 `json:"cpu_steal_pct"` // CPU time the hypervisor took during the run
}

func fingerprint(dir string) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
	}
	h.FsyncP50us = probeFsync(dir)
	return h
}
