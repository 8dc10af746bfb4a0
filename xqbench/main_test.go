package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig runs a workload on the smallest document for a fraction of a
// second.
func tinyConfig(t *testing.T, name string, traced bool) config {
	t.Helper()
	for _, wl := range workloads {
		if wl.name == name {
			wl.sf = 0.0002
			return config{wl: wl, seed: 3, seconds: 300 * time.Millisecond, trace: traced, out: t.TempDir()}
		}
	}
	t.Fatalf("no workload %q", name)
	return config{}
}

func TestEveryMetricPrintedWithItsUnit(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := run(tinyConfig(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rep.Errors)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if rep.Env.NumCPU < 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.GoVersion == "" || rep.Env.ScaleFactor != 0.0002 {
				t.Errorf("%s: incomplete environment stamp %+v", w.Name, rep.Env)
			}
			if len(rep.Queries) != numQueries {
				t.Errorf("%s: %d per-query rows, want %d", w.Name, len(rep.Queries), numQueries)
			}
		}
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, name := range []string{"suite", "server-rw"} {
		cfg := tinyConfig(t, name, false)
		cfg.corrupt = func(q int, xml string) string {
			if queryName(q) == "Q13" {
				return strings.Replace(xml, "<", "<x", 1) + " "
			}
			return xml
		}
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Result.Correct || rep.Result.Failed == 0 {
			t.Errorf("%s: a wrong Q13 answer passed the gate: correct=%v failed=%d",
				name, rep.Result.Correct, rep.Result.Failed)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{Op: 1, ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Name: "xq", Start: 10, End: 30},
		{Op: 1, ID: 2, Parent: 0, Name: "exec", Start: 25, End: 60},
		{Op: 2, ID: 3, Parent: -1, Name: "query", Start: 100, End: 110},
	}}
	self, ops := selfTimes([]*tracer{tr})
	if self["query"] != 60 || self["xq"] != 20 || self["exec"] != 35 {
		t.Errorf("self times %v, want query 60, xq 20, exec 35", self)
	}
	if ops["query"] != 2 || ops["xq"] != 1 {
		t.Errorf("operations per layer %v, want query 2, xq 1", ops)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.99); got < 4.9 || got > 5 {
		t.Errorf("p99 of 1..5 = %v, want within [4.9, 5]", got)
	}
	big := make([]float64, 100000)
	for i := range big {
		big[i] = float64(i)
	}
	if got := quantile(big, 0.99); math.Abs(got-98999) > 5 {
		t.Errorf("p99 of 0..99999 = %v, want about 98999", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	if mb, ok := parseVmHWM("Name:\txqbench\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"); !ok || mb != 2 {
		t.Errorf("parseVmHWM = %v, %v, want 2, true", mb, ok)
	}
	for _, status := range []string{"VmHWM:\n", "VmHWM: x kB\n", "VmRSS: 1024 kB\n", ""} {
		if _, ok := parseVmHWM(status); ok {
			t.Errorf("parseVmHWM(%q) reported a value", status)
		}
	}
}
