package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQueueingTargetsRun: Figures 8-10 print as three blocks, all read
// from Figure 4's three 8 KB cells, which run once for the three.
func TestQueueingTargetsRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fig8", "fig9", "fig10"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, name := range []string{"fig8", "fig9", "fig10"} {
		if !strings.Contains(got, opening(name)+"MVA") && !strings.Contains(got, opening(name)+"M/M/1") {
			t.Errorf("no %s block in:\n%s", name, got)
		}
	}
	if strings.Count(got, closing) != 3 || !strings.Contains(got, "| population |") || !strings.Contains(got, "saturated") {
		t.Errorf("blocks malformed:\n%s", got)
	}
}

func TestUnknownTargetRejected(t *testing.T) {
	if err := run([]string{"fig99"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown target accepted")
	}
}

// TestDocRefusals: -doc refuses a missing file, and a file without a
// block for every target asked for, before running anything.
func TestDocRefusals(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "doc.md")
	if err := os.WriteFile(doc, []byte(opening("fig4")+"x\n"+closing+"\n"+opening("fig5")+"unclosed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-doc", filepath.Join(t.TempDir(), "missing.md"), "fig4"},
		{"-doc", doc, "fig4", "fig6"},
		{"-doc", doc, "fig5"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestSplice: a block's body is replaced and everything around it,
// other blocks included, kept byte for byte.
func TestSplice(t *testing.T) {
	doc := "# t\n\n" + opening("fig8") + "old\nrows\n" + closing + "\nprose\n" + opening("fig9") + "kept\n" + closing + "\n"
	got, ok := splice(doc, "fig8", "new\n")
	want := "# t\n\n" + opening("fig8") + "new\n" + closing + "\nprose\n" + opening("fig9") + "kept\n" + closing + "\n"
	if !ok || got != want {
		t.Errorf("splice = %v\n%s\nwant\n%s", ok, got, want)
	}
	if _, ok := splice(doc, "fig1", "x"); ok {
		t.Error("spliced a block the doc does not have")
	}
}

func TestExpand(t *testing.T) {
	out := expand([]string{"all"})
	if len(out) != 10 {
		t.Errorf("expand(all) = %d targets, want 10", len(out))
	}
	out = expand([]string{"fig4", "fig5"})
	if len(out) != 2 || out[0] != "fig4" {
		t.Errorf("expand passthrough wrong: %v", out)
	}
}
