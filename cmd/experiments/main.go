// Command experiments reproduces every table and figure of the paper's
// evaluation (Section 6). Each experiment prints its rows in the shape the
// paper reports.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig4 -n 65533 -queries 3000     (paper-scale accuracy run)
//	experiments -run tab4 -n 1000000                 (scale the performance corpus)
//
// Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 tab3 tab4
// frontier (accuracy-vs-bytes sweep over sketch backends; prints one JSON
// summary line per backend at t*=0.5)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lshensemble/internal/expt"
)

func main() {
	run := flag.String("run", "all", "experiment id (fig1..fig10, tab3, tab4) or 'all'")
	n := flag.Int("n", 0, "number of domains for accuracy experiments (default 4000)")
	perfN := flag.Int("perfn", 0, "number of domains for performance experiments (default 100000)")
	queries := flag.Int("queries", 0, "number of queries (default 100 accuracy / 50 performance)")
	seed := flag.Uint64("seed", 1, "corpus seed")
	flag.Parse()

	acc := expt.AccuracyConfig{NumDomains: *n, NumQueries: *queries, Seed: *seed}
	perf := expt.PerfConfig{NumDomains: *perfN, NumQueries: *queries, Seed: *seed}

	ids := strings.Split(*run, ",")
	if *run == "all" {
		ids = []string{"tab3", "fig1", "fig2", "fig3", "fig4", "fig5",
			"fig6", "fig7", "fig8", "fig9", "fig10", "tab4", "frontier"}
	}
	for _, id := range ids {
		if err := runOne(strings.TrimSpace(id), acc, perf); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runOne(id string, acc expt.AccuracyConfig, perf expt.PerfConfig) error {
	start := time.Now()
	switch id {
	case "tab3":
		header("Table 3: experimental variables")
		for _, r := range expt.RunTab3(acc, perf) {
			fmt.Printf("  %-42s %s\n", r.Variable, r.Value)
		}
	case "fig1":
		header("Figure 1: domain size distributions (log2 buckets)")
		rows, aOpen, aWeb := expt.RunFig1(expt.Fig1Config{Seed: acc.Seed})
		for _, r := range rows {
			fmt.Println(" ", r)
		}
		fmt.Printf("  power-law exponent (MLE): opendata α=%.2f, webtable α=%.2f\n", aOpen, aWeb)
	case "fig2":
		header("Figure 2: containment→Jaccard conversion (u=3, x=1, q=1)")
		rows, tStar, sStar, tx := expt.RunFig2()
		for i := 0; i < len(rows); i += 4 {
			r := rows[i]
			fmt.Printf("  t=%.2f  s_x,q=%.4f  s_u,q=%.4f\n", r.T, r.SxQ, r.SuQ)
		}
		fmt.Printf("  t*=%.2f → s*=%.4f, effective threshold t_x=%.4f\n", tStar, sStar, tx)
	case "fig3":
		header("Figure 3: P(t|x=10,q=5,b=256,r=4) with FP/FN areas (t*=0.5)")
		rows, fp, fn := expt.RunFig3()
		for i := 0; i < len(rows); i += 5 {
			fmt.Printf("  t=%.2f  P=%.4f\n", rows[i].T, rows[i].P)
		}
		fmt.Printf("  FP area=%.4f  FN area=%.4f\n", fp, fn)
	case "fig4":
		header("Figure 4: accuracy vs containment threshold (Canadian-Open-Data-like)")
		rows, err := expt.RunFig4(acc)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case "fig5":
		header("Figure 5: accuracy vs domain size skewness")
		rows, err := expt.RunFig5(expt.Fig5Config{AccuracyConfig: acc})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case "fig6":
		header("Figure 6: accuracy, largest-10% queries")
		rows, err := expt.RunFig6(acc)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case "fig7":
		header("Figure 7: accuracy, smallest-10% queries")
		rows, err := expt.RunFig7(acc)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case "fig8":
		header("Figure 8: accuracy vs std. dev. of partition sizes (equi-depth→equi-width)")
		rows, err := expt.RunFig8(expt.Fig8Config{AccuracyConfig: acc})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case "fig9":
		header("Figure 9: indexing and mean query cost vs corpus size (WDC-like)")
		rows, err := expt.RunFig9(perf)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case "fig10":
		header("Figure 10: Asymmetric Minwise Hashing recall collapse (q=1, b=256, r=1)")
		for _, r := range expt.RunFig10() {
			fmt.Println(" ", r)
		}
	case "tab4":
		header("Table 4: indexing and query cost, Baseline vs LSH Ensemble (5 shards)")
		rows, err := expt.RunTab4(perf)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case "frontier":
		header("Accuracy-vs-bytes frontier: sketch backends at fixed partitioning")
		rows, err := expt.RunSketchFrontier(expt.SketchConfig{AccuracyConfig: acc})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
		// One machine-readable line per backend at the t*=0.5 default.
		for _, r := range rows {
			if r.Threshold == 0.5 {
				fmt.Printf("{\"bench\":\"frontier\",\"system\":%q,\"bytes_per_domain\":%.1f,\"threshold\":%.2f,\"precision\":%.3f,\"recall\":%.3f,\"f1\":%.3f}\n",
					r.System, r.BytesPerDomain, r.Threshold, r.Precision, r.Recall, r.F1)
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	fmt.Printf("  [%s in %s]\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
