package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestOverloadExperimentRuns runs the whole experiment at a short
// per-point duration and checks its output shape: six points, each of
// which sent requests and saw no error outside the refusal and timeout
// classes. It asserts no goodput ordering, which depends on timing;
// internal/server's TestServerOverloadSoak pins the shedding policy.
func TestOverloadExperimentRuns(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-overload-duration", "200ms"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw.String())
	}
	var names []string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var pt overloadPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if pt.Requests == 0 || pt.Errors != 0 {
			t.Errorf("%s: %d requests, %d errors; want some requests and no errors", pt.Name, pt.Requests, pt.Errors)
		}
		names = append(names, pt.Name)
	}
	want := "SrvOverload/shed/x1 SrvOverload/park/x1 SrvOverload/shed/x2 SrvOverload/park/x2 SrvOverload/shed/x4 SrvOverload/park/x4"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("points %s, want %s", got, want)
	}
}
