// Command experiments reproduces every table and figure of the paper's
// evaluation (Section 6). Each experiment prints its rows in the shape the
// paper reports.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig4 -n 65533 -queries 3000     (paper-scale accuracy run)
//	experiments -run tab4 -perfn 1000000             (scale the performance corpus)
//
// Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 tab3 tab4
// frontier (accuracy-vs-bytes sweep over sketch backends; prints one JSON
// summary line per backend at t*=0.5)
//
// A negative -n, -perfn or -queries is refused before any experiment runs
// (exit status 2, as for a malformed flag). fig9 refuses -perfn below its 5
// corpus sizes and tab4 below its 5 shards, and an unknown id is refused when
// its turn comes (exit status 1).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lshensemble/internal/expt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run runs the experiments args name, printing their rows to stdout, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ids := fs.String("run", "all", "comma-separated experiment ids (fig1..fig10, tab3, tab4, frontier) or 'all'")
	n := fs.Int("n", 0, "number of domains for accuracy experiments (default 4000)")
	perfN := fs.Int("perfn", 0, "number of domains for performance experiments (default 100000)")
	queries := fs.Int("queries", 0, "number of queries (default 100 accuracy / 50 performance)")
	seed := fs.Uint64("seed", 1, "corpus seed")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"n", *n}, {"perfn", *perfN}, {"queries", *queries}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "experiments: -%s %d must not be negative\n", f.name, f.v)
			return 2
		}
	}

	acc := expt.AccuracyConfig{NumDomains: *n, NumQueries: *queries, Seed: *seed}
	perf := expt.PerfConfig{NumDomains: *perfN, NumQueries: *queries, Seed: *seed}

	list := strings.Split(*ids, ",")
	if *ids == "all" {
		list = []string{"tab3", "fig1", "fig2", "fig3", "fig4", "fig5",
			"fig6", "fig7", "fig8", "fig9", "fig10", "tab4", "frontier"}
	}
	for _, id := range list {
		id = strings.TrimSpace(id)
		start := time.Now()
		if err := runOne(stdout, id, acc, perf); err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "  [%s in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// printRows prints one experiment's rows, one to a line, or returns the
// error that stopped the experiment.
func printRows[T fmt.Stringer](w io.Writer, rows []T, err error) error {
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintln(w, " ", r)
	}
	return nil
}

func runOne(w io.Writer, id string, acc expt.AccuracyConfig, perf expt.PerfConfig) error {
	switch id {
	case "tab3":
		header(w, "Table 3: experimental variables")
		for _, r := range expt.RunTab3(acc, perf) {
			fmt.Fprintf(w, "  %-42s %s\n", r.Variable, r.Value)
		}
	case "fig1":
		header(w, "Figure 1: domain size distributions (log2 buckets)")
		rows, aOpen, aWeb := expt.RunFig1(expt.Fig1Config{Seed: acc.Seed})
		printRows(w, rows, nil)
		fmt.Fprintf(w, "  power-law exponent (MLE): opendata α=%.2f, webtable α=%.2f\n", aOpen, aWeb)
	case "fig2":
		header(w, "Figure 2: containment→Jaccard conversion (u=3, x=1, q=1)")
		rows, tStar, sStar, tx := expt.RunFig2()
		for i := 0; i < len(rows); i += 4 {
			r := rows[i]
			fmt.Fprintf(w, "  t=%.2f  s_x,q=%.4f  s_u,q=%.4f\n", r.T, r.SxQ, r.SuQ)
		}
		fmt.Fprintf(w, "  t*=%.2f → s*=%.4f, effective threshold t_x=%.4f\n", tStar, sStar, tx)
	case "fig3":
		header(w, "Figure 3: P(t|x=10,q=5,b=256,r=4) with FP/FN areas (t*=0.5)")
		rows, fp, fn := expt.RunFig3()
		for i := 0; i < len(rows); i += 5 {
			fmt.Fprintf(w, "  t=%.2f  P=%.4f\n", rows[i].T, rows[i].P)
		}
		fmt.Fprintf(w, "  FP area=%.4f  FN area=%.4f\n", fp, fn)
	case "fig4":
		header(w, "Figure 4: accuracy vs containment threshold (Canadian-Open-Data-like)")
		rows, err := expt.RunFig4(acc)
		return printRows(w, rows, err)
	case "fig5":
		header(w, "Figure 5: accuracy vs domain size skewness")
		rows, err := expt.RunFig5(expt.Fig5Config{AccuracyConfig: acc})
		return printRows(w, rows, err)
	case "fig6":
		header(w, "Figure 6: accuracy, largest-10% queries")
		rows, err := expt.RunFig6(acc)
		return printRows(w, rows, err)
	case "fig7":
		header(w, "Figure 7: accuracy, smallest-10% queries")
		rows, err := expt.RunFig7(acc)
		return printRows(w, rows, err)
	case "fig8":
		header(w, "Figure 8: accuracy vs std. dev. of partition sizes (equi-depth→equi-width)")
		rows, err := expt.RunFig8(expt.Fig8Config{AccuracyConfig: acc})
		return printRows(w, rows, err)
	case "fig9":
		header(w, "Figure 9: indexing and mean query cost vs corpus size (WDC-like)")
		rows, err := expt.RunFig9(perf)
		return printRows(w, rows, err)
	case "fig10":
		header(w, "Figure 10: Asymmetric Minwise Hashing recall collapse (q=1, b=256, r=1)")
		return printRows(w, expt.RunFig10(), nil)
	case "tab4":
		header(w, "Table 4: indexing and query cost, Baseline vs LSH Ensemble (5 shards)")
		rows, err := expt.RunTab4(perf)
		return printRows(w, rows, err)
	case "frontier":
		header(w, "Accuracy-vs-bytes frontier: sketch backends at fixed partitioning")
		rows, err := expt.RunSketchFrontier(expt.SketchConfig{AccuracyConfig: acc})
		if err := printRows(w, rows, err); err != nil {
			return err
		}
		// One machine-readable line per backend at the t*=0.5 default.
		for _, r := range rows {
			if r.Threshold == 0.5 {
				fmt.Fprintf(w, "{\"bench\":\"frontier\",\"system\":%q,\"bytes_per_domain\":%.1f,\"threshold\":%.2f,\"precision\":%.3f,\"recall\":%.3f,\"f1\":%.3f}\n",
					r.System, r.BytesPerDomain, r.Threshold, r.Precision, r.Recall, r.F1)
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
