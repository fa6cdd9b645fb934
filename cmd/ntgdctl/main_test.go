package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeProg materializes a program source as a temp .ntgd file.
func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.ntgd")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes the CLI in-process and captures both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

const coloringSrc = `
node(1). node(2). node(3).
edge(1,2). edge(2,3). edge(3,1).

node(X) -> red(X) | green(X).
edge(X,Y), red(X), red(Y) -> bad.
edge(X,Y), green(X), green(Y) -> bad.
`

const querySrc = `
person(alice).

person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).

?- person(alice).
`

func TestSolveExitOK(t *testing.T) {
	path := writeProg(t, coloringSrc)
	code, out, errw := runCLI("solve", path)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitOK, errw)
	}
	if !strings.Contains(out, "8 stable model(s)") {
		t.Fatalf("stdout = %q, want the 8 colorings", out)
	}
	if strings.Contains(out, "incomplete") {
		t.Fatalf("complete enumeration flagged incomplete: %q", out)
	}
}

func TestUsageExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{},                  // no command
		{"frobnicate"},      // unknown command
		{"solve"},           // missing file
		{"solve", "-n"},     // malformed flag value
		{"solve", "a", "b"}, // too many args
	} {
		if code, _, _ := runCLI(args...); code != exitUsage {
			t.Errorf("run(%q) = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestLoadErrorExitsOne(t *testing.T) {
	code, _, errw := runCLI("solve", filepath.Join(t.TempDir(), "absent.ntgd"))
	if code != exitError {
		t.Fatalf("exit = %d, want %d", code, exitError)
	}
	if !strings.Contains(errw, "ntgdctl:") {
		t.Fatalf("stderr = %q, want an ntgdctl: error line", errw)
	}
}

func TestWallClockExitsBudget(t *testing.T) {
	path := writeProg(t, coloringSrc)
	code, _, errw := runCLI("solve", "-wall", "1ns", path)
	if code != exitBudget {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitBudget, errw)
	}
	if !strings.Contains(errw, "wall-clock budget exhausted") ||
		!strings.Contains(errw, "partial stats:") {
		t.Fatalf("stderr = %q, want wall-clock cause with partial stats", errw)
	}
}

func TestAtomBudgetExitsBudget(t *testing.T) {
	path := writeProg(t, coloringSrc)
	code, out, errw := runCLI("solve", "-max-atoms", "1", path)
	if code != exitBudget {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitBudget, errw)
	}
	if !strings.Contains(errw, "search budget exhausted") {
		t.Fatalf("stderr = %q, want the budget cause", errw)
	}
	if !strings.Contains(out, "(enumeration may be incomplete)") {
		t.Fatalf("stdout = %q, want the incomplete marker", out)
	}
}

func TestTimeoutExitsTimeout(t *testing.T) {
	path := writeProg(t, coloringSrc)
	code, _, errw := runCLI("solve", "-timeout", "1ns", path)
	if code != exitTimeout {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitTimeout, errw)
	}
	if !strings.Contains(errw, "timed out") || !strings.Contains(errw, "partial stats:") {
		t.Fatalf("stderr = %q, want timeout cause with partial stats", errw)
	}
}

func TestMemoryWatermarkExitsMemory(t *testing.T) {
	path := writeProg(t, coloringSrc)
	code, _, errw := runCLI("solve", "-max-mem", "1", path)
	if code != exitMemory {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitMemory, errw)
	}
	if !strings.Contains(errw, "memory watermark exceeded") {
		t.Fatalf("stderr = %q, want the memory cause", errw)
	}
}

func TestQueryContract(t *testing.T) {
	path := writeProg(t, querySrc)
	code, out, errw := runCLI("query", path)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitOK, errw)
	}
	if !strings.Contains(out, "cautious: true") {
		t.Fatalf("stdout = %q, want a cautious: true verdict", out)
	}
}

func TestQueryTimeoutExitsTimeout(t *testing.T) {
	path := writeProg(t, querySrc)
	code, out, errw := runCLI("query", "-timeout", "1ns", path)
	if code != exitTimeout {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitTimeout, errw)
	}
	if !strings.Contains(out, "unknown") {
		t.Fatalf("stdout = %q, want the unknown verdict", out)
	}
	if !strings.Contains(errw, "partial stats:") {
		t.Fatalf("stderr = %q, want partial stats", errw)
	}
}

func TestClassifyAndFormula(t *testing.T) {
	path := writeProg(t, coloringSrc)
	if code, out, _ := runCLI("classify", path); code != exitOK || out == "" {
		t.Fatalf("classify: exit %d, out %q", code, out)
	}
	if code, out, _ := runCLI("formula", path); code != exitOK || out == "" {
		t.Fatalf("formula: exit %d, out %q", code, out)
	}
}

// TestGroundGolden pins `ntgdctl ground` output: the ground program
// printed with the original atoms, which the command names itself
// because the grounding keeps no names.
func TestGroundGolden(t *testing.T) {
	for _, name := range []string{"father", "coloring"} {
		t.Run(name, func(t *testing.T) {
			code, out, errw := runCLI("ground", filepath.Join("..", "..", "testdata", name+".ntgd"))
			if code != exitOK {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitOK, errw)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "ground-"+name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Fatalf("ground output differs from the golden file:\ngot:\n%s\nwant:\n%s", out, want)
			}
		})
	}
}

// TestGroundingBudgetExitsBudget: an LP grounding past its budget is a
// budget, exit 3, whether the Herbrand base outgrows the atom bound (the
// cube) or nested Skolem terms outgrow the term-size bound (the other
// three, whose keys grow quadratically or like Fibonacci numbers).
func TestGroundingBudgetExitsBudget(t *testing.T) {
	var cube strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&cube, "d(c%d). ", i)
	}
	cube.WriteString("d(X), d(Y), d(Z) -> t(X,Y,Z).\n?- t(c0,c1,c2).\n")
	for name, src := range map[string]string{
		"quadratic": "p(a). p(X) -> q(X,Y). q(X,Y) -> p(Y).\n?- p(a).\n",
		"fibonacci": "e(a,b). e(X,Y) -> e(Y,Z).\n?- e(a,b).\n",
		"pairs":     "p(a,b). p(X,Y) -> p(Y,Z).\n?- p(a,b).\n",
		"cube":      cube.String(),
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			code, _, errw := runCLI("query", "-sem", "lp", writeProg(t, src))
			if code != exitBudget {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitBudget, errw)
			}
			if !strings.Contains(errw, "budget exhausted") {
				t.Fatalf("stderr = %q, want the budget cause", errw)
			}
		})
	}
}
