package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContractMatchesCatalogue keeps BENCHMARK.json's metric lists and
// workloads equal to what the program prints.
func TestContractMatchesCatalogue(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, c := range []struct {
		list string
		json []metricJSON
	}{{"end_to_end", b.EndToEnd}, {"per_layer", b.PerLayer}} {
		var want []metricJSON
		for _, m := range catalogue {
			if m.Contract && m.list() == c.list {
				want = append(want, metricJSON{m.Name, m.Unit, m.Better})
			}
		}
		if fmt.Sprint(c.json) != fmt.Sprint(want) {
			t.Errorf("BENCHMARK.json %s = %v, the program prints %v", c.list, c.json, want)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := defaultPrefix[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

var digestRE = regexp.MustCompile(`sim_digest=([0-9a-f]{16})`)

// smoke runs the benchmark in-process on a tiny prefix and returns its
// stdout and sim_digest after checking the output contract.
func smoke(t *testing.T, workload string, trace, workers int) (string, string) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0",
		"--trace", fmt.Sprint(trace), "--workers", fmt.Sprint(workers), "--out", t.TempDir()}
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s", workload, trace, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	report := strings.Join(lines[:len(lines)-1], "\n")
	contract := 0
	for _, m := range catalogue {
		if m.Traced != (trace == 1) {
			continue
		}
		if m.Contract {
			contract++
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%d: result line lacks %s [%s]", workload, trace, m.Name, m.Unit)
			}
		}
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + ` `).MatchString(report) {
			t.Errorf("%s trace=%d: report does not print %s with unit %s", workload, trace, m.Name, m.Unit)
		}
	}
	if len(res.Metrics) != contract {
		t.Errorf("%s trace=%d: result line has %d metrics, want %d", workload, trace, len(res.Metrics), contract)
	}
	if trace == 0 && !regexp.MustCompile(`(?m)^  failed_frac +0 `).MatchString(report) {
		t.Errorf("%s: failed_frac is not 0:\n%s", workload, report)
	}
	d := digestRE.FindStringSubmatch(report)
	if d == nil {
		t.Fatalf("%s: no sim_digest in the report", workload)
	}
	return report, d[1]
}

// TestSmoke runs every workload at a tiny scenario count: every metric
// is printed with its unit, nothing fails, and sim_digest is the same
// on two consecutive runs, traced or not, and at 1 or nproc workers.
func TestSmoke(t *testing.T) {
	saved := maps.Clone(defaultPrefix)
	t.Cleanup(func() { defaultPrefix = saved })
	for w := range defaultPrefix {
		defaultPrefix[w] = 6
	}
	nproc := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, w := range []string{"campaign", "topo", "forensics"} {
		t.Run(w, func(t *testing.T) {
			_, d1 := smoke(t, w, 0, nproc)
			_, d2 := smoke(t, w, 0, nproc)
			_, d3 := smoke(t, w, 1, nproc)
			_, d4 := smoke(t, w, 0, 1)
			if d1 != d2 || d1 != d3 || d1 != d4 {
				t.Errorf("sim_digest differs: run1 %s run2 %s traced %s one-worker %s", d1, d2, d3, d4)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "topo", "--trace", "2"},
		{"--workload", "topo", "--workers", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chansend", "ftpn/internal/des.(*Kernel).resume"}, "runtime"},
		{[]string{"hash/fnv.(*sum64a).Write", "ftpn/internal/kpn.Token.Hash", "main.(*scen).sink.func1"}, "kpn"},
		{[]string{"ftpn/internal/fault.(*Switch).Check"}, "ft"},
		{[]string{"ftpn/internal/codec/mjpeg.fdct"}, "codec"},
		{[]string{"ftpn/internal/des.(*TimedRing[go.shape.struct { ftpn/internal/kpn.Token }]).Push"}, "des"},
		{[]string{"main.main"}, "other"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
