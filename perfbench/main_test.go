package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"grape6/internal/board"
	"grape6/internal/direct"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/vec"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestDeclaredMetrics checks BENCHMARK.json against the tables the
// benchmark reports from.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q (why %q), benchmark has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check := func(kind string, declared, reported []metricDef) {
		if len(declared) != len(reported) {
			t.Errorf("%s: %d declared, %d reported", kind, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			if d != reported[i] {
				t.Errorf("%s %d: declared %+v, reported %+v", kind, i, d, reported[i])
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s: malformed %+v", kind, d)
			}
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// smoke runs one workload at the smoke sizes and returns its result line.
func smoke(t *testing.T, w workload, seed uint64, trace bool) resultOut {
	t.Helper()
	var out bytes.Buffer
	if err := runOne(w, options{workload: w.name, seed: seed, seconds: 1, trace: trace, smoke: true}, &out); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.name, err)
	}
	if !strings.HasPrefix(lines[0], "host: num_cpu=") {
		t.Errorf("%s: no host stamp: %q", w.name, lines[0])
	}
	return res
}

// exact lists the metrics a workload computes from its inputs alone: the
// same seed must reproduce them bit for bit.
var exact = map[bool][]string{
	false: {"model_gflops"},
	true: {
		"hermite.block_size_mean", "hermite.energy_drift", "board.hw_cycles_per_step",
		"perfmodel.host_frac", "perfmodel.grape_frac", "perfmodel.comm_frac",
		"simnet.messages", "simnet.bytes", "parallel.energy_drift",
		"vtrace.host_frac", "vtrace.grape_frac", "vtrace.comm_frac", "vtrace.sync_frac",
	},
}

// TestSmoke runs every workload at tiny sizes, traced and untraced, and
// checks that each reports every declared metric with its unit, passes
// its correctness checks, reproduces its exact metrics from the same
// seed, and changes them with another seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			a := smoke(t, w, 7, trace)
			if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.name, trace, a.Correct, a.Failed, a.Attempted)
			}
			defs := defsFor(trace)
			if len(a.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.name, trace, len(a.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := a.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s reported as %+v (present %v), want unit %s", w.name, trace, d.Name, m, ok, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.Name, m.Value)
				}
			}
			b := smoke(t, w, 7, trace)
			c := smoke(t, w, 8, trace)
			changed := false
			for _, name := range exact[trace] {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: seed 7 gave %s = %v, then %v", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
				changed = changed || a.Metrics[name] != c.Metrics[name]
			}
			if !changed {
				t.Errorf("%s trace=%v: seeds 7 and 8 gave identical exact metrics", w.name, trace)
			}
		}
	}
}

// fakeBackend is a minimal hermite.Backend; the types below add one
// optional interface each.
type fakeBackend struct{}

func (fakeBackend) Load(*nbody.System)          {}
func (fakeBackend) Update(*nbody.System, []int) {}
func (fakeBackend) NJ() int                     { return 0 }
func (fakeBackend) Forces(float64, []int, []vec.V3, []vec.V3, float64) []direct.Force {
	return nil
}

type intoPart struct{}

func (intoPart) ForcesInto(dst []direct.Force, _ float64, _ []int, _, _ []vec.V3, _ float64) []direct.Force {
	return dst
}

type aheadPart struct{}

func (aheadPart) BeginPredict(float64) {}

type yieldPart struct{}

func (yieldPart) Yield() {}

func optional(b hermite.Backend) [3]bool {
	_, i := b.(hermite.ForcesIntoBackend)
	_, a := b.(hermite.PredictAheadBackend)
	_, y := b.(hermite.YieldBackend)
	return [3]bool{i, a, y}
}

// TestProbesForwardExactlyTheOptionalInterfaces checks every combination
// of optional interfaces survives wrapping unchanged.
func TestProbesForwardExactlyTheOptionalInterfaces(t *testing.T) {
	backends := []hermite.Backend{
		fakeBackend{},
		struct {
			fakeBackend
			intoPart
		}{},
		struct {
			fakeBackend
			aheadPart
		}{},
		struct {
			fakeBackend
			yieldPart
		}{},
		struct {
			fakeBackend
			intoPart
			aheadPart
		}{},
		struct {
			fakeBackend
			intoPart
			yieldPart
		}{},
		struct {
			fakeBackend
			aheadPart
			yieldPart
		}{},
		struct {
			fakeBackend
			intoPart
			aheadPart
			yieldPart
		}{},
	}
	for _, b := range backends {
		got := optional(newBackendProbe(b, true, nil).wrap())
		if want := optional(b); got != want {
			t.Errorf("%T: wrapped has ForcesInto/BeginPredict/Yield %v, want %v", b, got, want)
		}
	}

	arr := board.New(attachment())
	defer arr.Close()
	arrays := []gbackend.Array{arr, struct {
		*board.Array
		yieldPart
	}{arr, yieldPart{}}}
	for _, a := range arrays {
		_, want := a.(interface{ Yield() })
		_, got := newArrayProbe(a).wrap().(interface{ Yield() })
		if got != want {
			t.Errorf("%T: wrapped has Yield %v, want %v", a, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 0.9); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
