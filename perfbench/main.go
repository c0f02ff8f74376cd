// Command perfbench is the emulator's benchmark. Each run measures one
// workload in its own process and prints, as the last line of standard
// output, one JSON object: whether every correctness check passed, how
// many operations were attempted and failed, and the metrics with their
// units — the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Earlier lines print the host the numbers were measured
// on and every metric by name, for people.
//
//	bash perfbench/run.sh --workload solo-blockstep --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// See README.md for the workloads and the metric → layer map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
}

// budget is the measured time a run aims for.
func (o options) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

type workload struct {
	name string
	run  func(options, *report) error
}

var workloads = []workload{
	{"solo-blockstep", runSolo},
	{"daemon-tenants", runDaemon},
	{"cosim-fullmachine", runCosim},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured time to aim for, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes that run in seconds (for tests)")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll())
	}
	for _, w := range workloads {
		if w.name == o.workload {
			if err := runOne(w, o, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", o.workload, workloadNames())
	os.Exit(2)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runAll runs every workload in a process of its own, passing the
// remaining arguments through, and returns the worst exit code.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		fmt.Printf("== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// report collects one run's checks and metrics.
type report struct {
	trace     bool
	attempted int64
	failed    int64
	values    map[string]float64
	notes     []string
}

// ops counts n operations that completed.
func (r *report) ops(n int64) { r.attempted += n }

// check counts one correctness check, and a failure when !ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// fail counts one failed operation.
func (r *report) fail(err error) {
	r.attempted++
	r.failed++
	fmt.Fprintln(os.Stderr, "operation failed:", err)
}

// set records a metric the run's table declares; anything else is
// dropped, so a workload can compute both tables' values freely.
func (r *report) set(name string, v float64) {
	for _, d := range defsFor(r.trace) {
		if d.Name == name {
			r.values[name] = v
			return
		}
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencies sets the step latency metrics. The p90 needs at least ten
// samples beyond it.
func (r *report) latencies(lat []float64, smoke bool) error {
	if len(lat) < 100 && !smoke {
		return fmt.Errorf("%d step latencies; the p90 needs at least 100", len(lat))
	}
	r.set("step_p50_ms", percentile(lat, 0.5))
	r.set("step_p90_ms", percentile(lat, 0.9))
	r.notef("step latency over %d samples", len(lat))
	return nil
}

// rung is one step of the per-layer ladder, in ns per interaction; ratio
// names the metric holding this rung over the one below it.
type rung struct {
	label string
	ns    float64
	ratio string
}

// ladder sets the ratio between adjacent rungs and prints each with its
// base.
func (r *report) ladder(rungs []rung) {
	r.notef("ladder, ns per interaction (ratio = rung ÷ the rung below):")
	for i, g := range rungs {
		if i == 0 {
			r.notef("  %-13s %9.4g", g.label, g.ns)
			continue
		}
		below := rungs[i-1]
		q := ratio(g.ns, below.ns)
		r.set(g.ratio, q)
		r.notef("  %-13s %9.4g   %s = %.4g (base: %s %.4g ns)", g.label, g.ns, g.ratio, q, below.label, below.ns)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func runOne(w workload, o options, out io.Writer) error {
	rep := &report{trace: o.trace, values: map[string]float64{}}
	bw := bufio.NewWriter(out)
	fmt.Fprintln(bw, hostStamp())
	fmt.Fprintf(bw, "workload %s seed %d seconds %d trace %v\n", w.name, o.seed, o.seconds, o.trace)
	if o.trace {
		rep.set("host.ref_ns", refLoopNs())
	}
	if err := w.run(o, rep); err != nil {
		return err
	}
	if !o.trace {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	res := resultOut{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, note := range rep.notes {
		fmt.Fprintln(bw, note)
	}
	var bypassed []string
	for _, d := range defsFor(o.trace) {
		v, ok := rep.values[d.Name]
		if !ok {
			if !o.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			bypassed = append(bypassed, d.Name) // a layer this workload does not run
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		if ok {
			fmt.Fprintf(bw, "%-30s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	if len(bypassed) > 0 {
		sort.Strings(bypassed)
		fmt.Fprintf(bw, "bypassed (reported as 0): %s\n", strings.Join(bypassed, " "))
	}
	fmt.Fprintf(bw, "failed_frac %.4g (%d of %d operations)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(bw, string(line))
	return bw.Flush()
}

// hostStamp names what the numbers were measured on.
func hostStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return "host: num_cpu=" + strconv.Itoa(runtime.NumCPU()) +
		" gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)) +
		" cpu=" + strconv.Quote(cpu) + " go=" + runtime.Version() + " commit=" + commit
}
