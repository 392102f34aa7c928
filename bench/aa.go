package main

import (
	"fmt"
	"os"
)

// runAA runs the end-to-end set twice back to back, same code, same seed, and
// fails if any metric differs between the two by more than the metric's own
// bound, in either direction: had the runs come in the other order, a second
// run that reads better would have read worse. A metric that cannot pass this
// cannot resolve a change of that size either, and is not fit to gate one.
func runAA(ws []workload, sc scale, seed uint64, seconds float64) error {
	var runs [2]map[string]resultLine
	for i := range runs {
		runs[i] = make(map[string]resultLine, len(ws))
		for _, w := range ws {
			rep, err := runEndToEnd(w, sc, seed, seconds)
			if err != nil {
				return err
			}
			line := rep.finish(os.Stdout, endToEndDefs, true)
			if !line.Correct {
				return fmt.Errorf("-aa: run %d of %s is not correct", i+1, w.name)
			}
			runs[i][w.name] = line
		}
	}

	var moved []string
	fmt.Printf("\n== A/A: run 2 against run 1 (base), seed %d ==\n", seed)
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1 (base)", "run 2", "ratio", "bound")
	for _, w := range ws {
		for _, d := range endToEndDefs {
			a := runs[0][w.name].Metrics[d.Name].Value
			b := runs[1][w.name].Metrics[d.Name].Value
			ratio := b / a
			mark := ""
			if max(a, b)/min(a, b)-1 > d.Bound {
				mark = "  MOVED"
				moved = append(moved, fmt.Sprintf("%s/%s", w.name, d.Name))
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %9.4f %7.3f%s\n", w.name, d.Name, a, b, ratio, d.Bound, mark)
		}
	}
	if len(moved) > 0 {
		return fmt.Errorf("-aa: %d metrics moved past their bound between two runs of the same code: %v", len(moved), moved)
	}
	fmt.Println("A/A: every end-to-end metric repeated within its bound")
	return nil
}
