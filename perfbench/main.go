// Command perfbench is the repository benchmark: it drives the library's
// public entry points (train.Pretrain, train.DPPretrain over zero.Sharded,
// ckpt.SaveFile/LoadModelFile and serve.NewServer(reg).Handler()) on one
// named workload and prints every metric by name with its unit.
//
//	perfbench --workload pretrain-b1-apollo --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrument attached.
// --trace 1 is a separate run that records spans around the calls into
// each layer and prints the per-layer metrics, including the tracing
// overhead measured against untraced passes made in the same run. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. The exit code is 0 only when every correctness check held.
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	rt "apollo/internal/runtime"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workDir  string
}

// workRoot holds each run's checkpoints (removed at exit) and the spans of
// the last traced run of each workload.
var workRoot = filepath.Join(".bench_build", "perfbench")

type workload struct {
	name string
	run  func(o options, r *result) error
}

var workloads = []workload{
	{"pretrain-b1-apollo", runB1},
	{"pretrain-zero2-adamw", runZero2},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed: corpus, weight init and request streams derive from it")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records per-layer spans and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}

	// One process, at most nproc (and at most 2) threads running Go code,
	// and a tensor-pool worker for each.
	procs := min(goruntime.NumCPU(), 2)
	goruntime.GOMAXPROCS(procs)
	rt.SetWorkers(procs)

	o.workDir = filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(o.workDir)

	fmt.Printf("host  nproc=%d GOMAXPROCS=%d workers=%d go=%s goarch=%s\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), rt.Workers(), goruntime.Version(), goruntime.GOARCH)
	fmt.Printf("run   workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, *seconds, *trace)

	r := newResult()
	start := time.Now()
	if err := w.run(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.metric("peak_rss_mb", peakRSSMB())
	fmt.Printf("done  in %.1fs\n", time.Since(start).Seconds())
	if o.trace {
		path := filepath.Join(workRoot, "spans-"+o.workload+".jsonl")
		if err := writeSpans(path, r.tracers); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return r.report(o.trace)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result collects one run's operation counts, correctness checks and
// metric values.
type result struct {
	attempted, succeeded, shed, failed int
	checks                             []string
	values                             map[string]float64
	notes                              map[string]string // sample counts and context printed next to a metric
	tracers                            []*tracer
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

// op counts one operation; ok=false counts it as failed.
func (r *result) op(ok bool) {
	r.attempted++
	if ok {
		r.succeeded++
	} else {
		r.failed++
	}
}

// check records one correctness check as an operation.
func (r *result) check(name string, ok bool, detail string) {
	r.op(ok)
	verdict := "ok  "
	if !ok {
		verdict = "FAIL"
	}
	r.checks = append(r.checks, fmt.Sprintf("check %s %s: %s", verdict, name, detail))
}

func (r *result) metric(name string, v float64) { r.values[name] = v }

// trace returns a new tracer whose spans are written out at the end of a
// traced run.
func (r *result) trace() *tracer {
	t := newTracer()
	r.tracers = append(r.tracers, t)
	return t
}

func (r *result) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable record and, last, the JSON result line.
// It returns the process exit code.
func (r *result) report(traced bool) int {
	for _, c := range r.checks {
		fmt.Println(c)
	}
	fmt.Printf("ops   attempted=%d succeeded=%d shed=%d failed=%d\n", r.attempted, r.succeeded, r.shed, r.failed)
	set := endToEnd
	if traced {
		set = perLayer
	}
	out := map[string]jsonMetric{}
	var names []string
	for _, m := range set {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.Name)
			return 1
		}
		out[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		names = append(names, m.Name)
	}
	// Metrics of the other set measured along the way are printed for
	// context but stay out of the JSON line.
	for name := range r.values {
		if _, ok := out[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("metric %-30s %14.6g %-9s", name, r.values[name], unitOf(name))
		if n := r.notes[name]; n != "" {
			line += " " + n
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	correct := r.failed == 0 && r.attempted > 0
	blob, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM, which /proc
// gives in KiB) in MB of 10⁶ bytes.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}
