package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestExperiments asserts every row of every experiment, sequentially
// and with two search workers.
func TestExperiments(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, e := range experiments {
			t.Run(fmt.Sprintf("%s/workers=%d", e.id, workers), func(t *testing.T) {
				rows, err := runExperiment(context.Background(), e, workers, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 {
					t.Fatal("no rows checked")
				}
				for _, r := range rows {
					if !r.ok() {
						t.Errorf("%s: got %v, want %v", r.label, r.got, r.want)
					}
				}
			})
		}
	}
}

// BenchmarkExperiments times each experiment and, like the test, fails
// on a row that differs, so a one-iteration bench run checks the
// verdicts too.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments {
		b.Run(e.id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := runExperiment(context.Background(), e, 1, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if !r.ok() {
						b.Fatalf("%s: got %v, want %v", r.label, r.got, r.want)
					}
				}
			}
		})
	}
}

// TestRunExitStatus: the command exits 0 when every row holds, 1 when
// a row differs or an experiment stops on an error, and 2 on usage
// errors.
func TestRunExitStatus(t *testing.T) {
	table := []experiment{
		{"E1", "holds", func(x *trial) { x.check("one", 1, 1) }},
		{"E2", "differs", func(x *trial) { x.check("two", 2, 3) }},
		{"E3", "fails", func(x *trial) { x.must(fmt.Errorf("broken")) }},
	}
	for _, tc := range []struct {
		args []string
		code int
		out  string
	}{
		{[]string{"-run", "E1"}, 0, "✓ one: 1 (want 1)"},
		{[]string{"-run", "E1,E2"}, 1, "✗ two: 2 (want 3)"},
		{[]string{"-run", "E3"}, 1, "== E3: fails =="},
		{[]string{"-run", "E9"}, 2, ""},
		{[]string{"-frobnicate"}, 2, ""},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out, io.Discard, table); code != tc.code {
			t.Errorf("run(%q) = %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(out.String(), tc.out) {
			t.Errorf("run(%q) printed %q, want it to contain %q", tc.args, out.String(), tc.out)
		}
	}
}
