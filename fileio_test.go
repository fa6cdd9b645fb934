package ntgd_test

import (
	"context"
	"testing"

	"ntgd"
)

// TestParseTestdataFiles parses every shipped example program and
// spot-checks the expected verdicts.
func TestParseTestdataFiles(t *testing.T) {
	father, err := ntgd.ParseFile("testdata/father.ntgd")
	if err != nil {
		t.Fatalf("father.ntgd: %v", err)
	}
	if len(father.Rules) != 3 || len(father.Queries) != 2 {
		t.Fatalf("father.ntgd shape wrong: %d rules, %d queries", len(father.Rules), len(father.Queries))
	}
	ctx := context.Background()
	v, err := ntgd.MustCompile(father, ntgd.CompileOptions{}).Entails(ctx, father.Queries[0], ntgd.Cautious)
	if err != nil || v.Entailed {
		t.Fatalf("father q1 should not be entailed (err=%v)", err)
	}

	s32, err := ntgd.ParseFile("testdata/section32.ntgd")
	if err != nil {
		t.Fatalf("section32.ntgd: %v", err)
	}
	models, err := collectModels(ctx, ntgd.MustCompile(s32, ntgd.CompileOptions{}))
	if err != nil || len(models) != 0 {
		t.Fatalf("section32 should have no stable models (err=%v, models=%d)", err, len(models))
	}

	col, err := ntgd.ParseFile("testdata/coloring.ntgd")
	if err != nil {
		t.Fatalf("coloring.ntgd: %v", err)
	}
	v, err = ntgd.MustCompile(col, ntgd.CompileOptions{}).Entails(ctx, col.Queries[0], ntgd.Brave)
	if err != nil || !v.Entailed {
		t.Fatalf("triangle is not 2-colorable; bad should be bravely entailed (err=%v)", err)
	}

	fig1, err := ntgd.ParseFile("testdata/figure1.ntgd")
	if err != nil {
		t.Fatalf("figure1.ntgd: %v", err)
	}
	if rep := ntgd.Classify(fig1); rep.Sticky {
		t.Fatalf("figure1.ntgd is the non-sticky set")
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ntgd.ParseFile("testdata/nonexistent.ntgd"); err == nil {
		t.Fatalf("missing file should error")
	}
}
