// Command perfbench is gpuchar's repeatable benchmark: three closed-loop
// workloads that drive the simulator and the gpuchard service through
// their public APIs, check every output, and print end-to-end metrics
// (untraced, --trace 0) or per-layer metrics (traced, --trace 1) as one
// JSON object on the last line of standard output. README.md in this
// directory names every workload and metric.
//
//	perfbench --workload sim_serial --seed 1 --seconds 30 --trace 0
//
// run.sh builds it from the repository's sources and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to the smoke test's size, and maxOps
	// caps the timed ops (0: no cap); only the smoke test sets them.
	tiny   bool
	maxOps int
	// diskSpool puts service_mix's spool on the real filesystem under
	// work instead of in memory.
	diskSpool bool
	// work is the scratch directory (spools, result files); schemacheck
	// is the schemacheck binary validating service results.
	work        string
	schemacheck string
	schema      string
	// writeGolden, when positive, renders that many frames of a sim
	// workload and rewrites its expected-values file instead of timing.
	writeGolden int
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's outcome: the metrics the contract prints,
// plus human-readable detail lines printed before them.
type report struct {
	attempted, failed int
	// checkErr records a whole-run check that failed (cross-check,
	// schema, accounting); it makes the run incorrect.
	checkErr []string
	metrics  map[string]metric
	detail   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.checkErr = append(r.checkErr, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options) (*report, error){
	"sim_serial":       func(o options) (*report, error) { return runSim(o, simSerial) },
	"sim_multipass_2w": func(o options) (*report, error) { return runSim(o, simMultipass) },
	"service_mix":      runService,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim_serial, sim_multipass_2w or service_mix")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "timed duration")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.BoolVar(&o.diskSpool, "disk-spool", false, "service_mix: spool on the real filesystem under -work")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&o.schemacheck, "schemacheck", ".bench_build/schemacheck", "schemacheck binary")
	flag.StringVar(&o.schema, "schema", "metrics_schema.json", "metrics schema service results must conform to")
	flag.IntVar(&o.writeGolden, "write-golden", 0, "rewrite a sim workload's expected values over this many frames")
	flag.Parse()
	o.trace = *trace == 1

	run, ok := workloads[o.workload]
	if !ok || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n",
			o.workload, *trace, o.seconds)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if rep == nil { // -write-golden
		return
	}
	rep.complete(o.trace)
	if err := rep.print(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// print writes the detail lines, then the contract's result line.
func (r *report) print(o options) error {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, d := range r.detail {
		fmt.Println("# " + d)
	}
	for _, e := range r.checkErr {
		fmt.Println("# CHECK FAILED: " + e)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%.6g %s; ", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Println("# " + b.String())
	line, err := json.Marshal(result{
		Correct:   r.failed == 0 && len(r.checkErr) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
