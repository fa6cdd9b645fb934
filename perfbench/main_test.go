package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; DisallowUnknownFields rejects
// any key it does not list.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark contract
// and against the workloads and metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is too long or leaves the tree", c)
		}
	}
	if len(b.Paths) == 0 || len(b.Paths) > 16 {
		t.Errorf("paths has %d entries, want 1..16", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if !slices.Contains(b.Paths, "perfbench") {
		t.Errorf("paths %v do not hold this benchmark's directory", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var names []string
	for _, w := range b.Workloads {
		unique(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program runs %s", names, workloadNames())
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, the program prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be listed with the largest bound (%v < %v)", setupBound, maxBound)
	}

	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, the program prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		for _, mv := range d.moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !slices.ContainsFunc(endToEndMetrics, func(e metricDef) bool { return e.name == metric }) || !slices.Contains(names, workload) {
				t.Errorf("%s moves %q, which names no end-to-end metric and workload", d.name, mv)
			}
		}
	}
}

// TestQuickRuns runs every workload briefly, untraced and traced, and
// checks the result line: every listed metric with its unit, no failed
// op, and a span file whose self times are not negative.
func TestQuickRuns(t *testing.T) {
	dir := t.TempDir()
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			spans := filepath.Join(dir, name+".json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--setups", "1",
				"--trace", trace, "--trace-out", spans}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			want := endToEndMetrics
			if trace == "1" {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if trace == "0" {
				continue
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var ss []span
			if err := json.Unmarshal(raw, &ss); err != nil {
				t.Fatalf("%s: span file: %v", name, err)
			}
			if len(ss) == 0 {
				t.Errorf("%s: no spans", name)
			}
			for n, nt := range totals(ss, func(span) bool { return true }) {
				if nt.self < 0 {
					t.Errorf("%s: span %s has self time %v", name, n, nt.self)
				}
			}
		}
	}
}

// TestRunRejectsBadFlags pins the usage errors.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, argv := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "search", "--trace", "2"},
		{"--workload", "search", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(argv, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", argv, code, stdout.String())
		}
	}
}
