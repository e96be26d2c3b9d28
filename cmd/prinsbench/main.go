// Command prinsbench regenerates the paper's evaluation: every figure
// (4-10) plus the overhead, change-density and fan-out measurements,
// each as a markdown table between `<!-- prinsbench NAME -->` and
// `<!-- /prinsbench -->`, the blocks EXPERIMENTS.md is made of.
//
// Usage:
//
//	prinsbench [-effort N] [-doc PATH] [density|fig4|...|fig10|overhead|fanout|all]...
//
// -effort scales how long the measured workload phases run (the
// reported quantities are ratios and stabilize quickly; the paper's
// hour-long runs correspond to large efforts). -doc rewrites the named
// blocks of the markdown file at PATH in place instead of printing
// them; `make repro` runs it on EXPERIMENTS.md and `make repro-check`
// fails when a regenerated copy differs from the committed one. Each
// measured cell runs once per invocation, however many tables read it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prins/internal/experiments"
	"prins/internal/wan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prinsbench:", err)
		os.Exit(1)
	}
}

// order is the tables prinsbench makes for `all`.
var order = []string{"density", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "overhead", "fanout"}

// targets make each table, by name.
var targets = map[string]func(*experiments.Runner) (*experiments.Table, error){
	"density":  (*experiments.Runner).Density,
	"fig4":     func(r *experiments.Runner) (*experiments.Table, error) { return r.Traffic(experiments.Fig4(r.Effort)) },
	"fig5":     func(r *experiments.Runner) (*experiments.Table, error) { return r.Traffic(experiments.Fig5(r.Effort)) },
	"fig6":     func(r *experiments.Runner) (*experiments.Table, error) { return r.Traffic(experiments.Fig6(r.Effort)) },
	"fig7":     func(r *experiments.Runner) (*experiments.Table, error) { return r.Traffic(experiments.Fig7(r.Effort)) },
	"fig8":     func(r *experiments.Runner) (*experiments.Table, error) { return r.Response(wan.T1) },
	"fig9":     func(r *experiments.Runner) (*experiments.Table, error) { return r.Response(wan.T3) },
	"fig10":    (*experiments.Runner).Saturation,
	"overhead": (*experiments.Runner).Overhead,
	"fanout":   (*experiments.Runner).Fanout,
}

const closing = "<!-- /prinsbench -->"

func opening(name string) string { return "<!-- prinsbench " + name + " -->\n" }

// splice returns doc with the body of its block name replaced by body,
// and whether doc has that block.
func splice(doc, name, body string) (string, bool) {
	i := strings.Index(doc, opening(name))
	if i < 0 {
		return doc, false
	}
	i += len(opening(name))
	j := strings.Index(doc[i:], closing)
	if j < 0 {
		return doc, false
	}
	return doc[:i] + body + doc[i+j:], true
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prinsbench", flag.ContinueOnError)
	effort := fs.Int("effort", 1, "workload length multiplier")
	docPath := fs.String("doc", "", "rewrite this markdown file's prinsbench blocks in place instead of printing them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := expand(fs.Args())
	if len(names) == 0 {
		names = order
	}
	var doc string
	if *docPath != "" {
		b, err := os.ReadFile(*docPath)
		if err != nil {
			return err
		}
		doc = string(b)
	}
	for _, name := range names {
		if targets[name] == nil {
			return fmt.Errorf("unknown target %q (want density, fig4..fig10, overhead, fanout, all)", name)
		}
		if _, ok := splice(doc, name, ""); *docPath != "" && !ok {
			return fmt.Errorf("%s has no %q block", *docPath, name)
		}
	}

	r := &experiments.Runner{Effort: experiments.Effort(*effort)}
	for _, name := range names {
		t, err := targets[name](r)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *docPath == "" {
			fmt.Fprintf(out, "%s%s%s\n\n", opening(name), t.Markdown(), closing)
			continue
		}
		doc, _ = splice(doc, name, t.Markdown())
	}
	if *docPath == "" {
		return nil
	}
	return os.WriteFile(*docPath, []byte(doc), 0o644)
}

// expand replaces "all" with every target.
func expand(names []string) []string {
	var out []string
	for _, n := range names {
		if n == "all" {
			out = append(out, order...)
		} else {
			out = append(out, n)
		}
	}
	return out
}
