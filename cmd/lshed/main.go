// Command lshed is a domain-search tool over directories of CSV tables,
// the end-to-end scenario motivating the paper: find columns in a data
// lake that maximally contain a query column, i.e. joinable tables.
//
// Usage:
//
//	lshed index  -data <dir> [-out index.bin] [-partitions 16] [-hashes 256] [-minsize 10]
//	lshed query  -index index.bin -file <table.csv> -column <name> [-t 0.7]
//	lshed query  -index index.bin -file <table.csv> -batch [-workers N] [-t 0.7]   (every column, one dispatch)
//	lshed search -data <dir> -file <table.csv> -column <name> [-t 0.7]   (index + query in one shot)
//	lshed stats  -index index.bin
//
// The threshold t* must lie in (0, 1]. The index file is an lshensembled
// snapshot under lshed's hash seed, which the daemon boots and then keeps up
// to date: lshensembled -snapshot index.bin -seed 0x15e4e5e3b1e (add the
// index's -hashes if it is not 256, or -hashes 0 to take the file's).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"lshensemble"
	"lshensemble/internal/domain"
	"lshensemble/internal/par"
	"lshensemble/internal/serve"
	"lshensemble/internal/tabular"
)

// hashSeed fixes the hash family so saved indexes and later queries agree.
const hashSeed = 0x15e4e5e3b1e

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "index":
		err = cmdIndex(os.Args[2:], os.Stdout)
	case "query":
		err = cmdQuery(os.Args[2:], os.Stdout)
	case "search":
		err = cmdSearch(os.Args[2:], os.Stdout)
	case "stats":
		err = cmdStats(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lshed:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `lshed — containment search over CSV data lakes (LSH Ensemble)

subcommands:
  index   build an index over every column of every CSV in a directory
  query   search a saved index with one column of a CSV file
  search  index a directory and query it in one invocation
  stats   print a saved index's shape

run "lshed <subcommand> -h" for flags`)
}

// sketchColumns sketches every column with a worker pool — column sketching
// is embarrassingly parallel and dominates indexing wall-clock on wide data
// lakes.
func sketchColumns(h *lshensemble.Hasher, cols []tabular.Column) []lshensemble.DomainRecord {
	recs := make([]lshensemble.DomainRecord, len(cols))
	par.Drain(len(cols), 0, func(_, i int) {
		recs[i] = lshensemble.SketchStrings(h, cols[i].Key, cols[i].Values)
	})
	return recs
}

// buildIndex sketches every column under dir and seals them into a live index
// of one segment. Nothing compacts it in the background: lshed only reads it.
func buildIndex(dir string, minSize, numHash, partitions int) (*lshensemble.LiveIndex, *lshensemble.Hasher, error) {
	if numHash < 1 || numHash > domain.MaxNumHash {
		return nil, nil, fmt.Errorf("-hashes %d out of range [1, %d]", numHash, domain.MaxNumHash)
	}
	cols, err := tabular.FromDir(dir, tabular.Options{MinSize: minSize})
	if err != nil {
		return nil, nil, err
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("no usable columns found in %s", dir)
	}
	h := lshensemble.NewHasher(numHash, hashSeed)
	idx, err := lshensemble.BuildLive(sketchColumns(h, cols), lshensemble.LiveOptions{
		Options:          lshensemble.Options{NumHash: numHash, NumPartitions: partitions},
		ManualCompaction: true,
	})
	return idx, h, err
}

// loadIndex reads an index file, refusing any that is not a snapshot under
// lshed's seed, and returns it with the hash family that queries it.
func loadIndex(path string) (*lshensemble.LiveIndex, *lshensemble.Hasher, error) {
	idx, err := serve.LoadSnapshot(path, hashSeed, lshensemble.LiveOptions{ManualCompaction: true})
	if err != nil {
		return nil, nil, err
	}
	return idx, lshensemble.NewHasher(idx.Options().NumHash, hashSeed), nil
}

// checkThreshold refuses a t* the daemon refuses and the index would clamp.
func checkThreshold(t float64) error {
	if !(t > 0 && t <= 1) {
		return fmt.Errorf("threshold %v out of range (0, 1]", t)
	}
	return nil
}

func cmdIndex(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	data := fs.String("data", "", "directory of CSV files (required)")
	out := fs.String("out", "index.bin", "output index file")
	partitions := fs.Int("partitions", 16, "number of cardinality partitions")
	hashes := fs.Int("hashes", 256, "MinHash signature length")
	minSize := fs.Int("minsize", 10, "discard columns with fewer distinct values")
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	start := time.Now()
	idx, _, err := buildIndex(*data, *minSize, *hashes, *partitions)
	if err != nil {
		return err
	}
	defer idx.Close()
	n, err := serve.WriteSnapshot(*out, hashSeed, idx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "indexed %d domains in %s → %s (%d bytes)\n",
		idx.Len(), time.Since(start).Round(time.Millisecond), *out, n)
	return nil
}

func loadQueryColumn(file, column string) ([]string, error) {
	cols, err := tabular.FromFile(file, tabular.Options{MinSize: -1})
	if err != nil {
		return nil, err
	}
	var names []string
	for _, c := range cols {
		names = append(names, c.Key)
		if keyColumn(c.Key) == column {
			return c.Values, nil
		}
	}
	return nil, fmt.Errorf("column %q not found in %s (have %v)", column, file, names)
}

// keyColumn strips the "<table>:" prefix from a domain key.
func keyColumn(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == ':' {
			return key[i+1:]
		}
	}
	return key
}

func runQuery(w io.Writer, idx *lshensemble.LiveIndex, h *lshensemble.Hasher, file, column string, t float64) error {
	values, err := loadQueryColumn(file, column)
	if err != nil {
		return err
	}
	q := lshensemble.SketchStrings(h, "query", values)
	start := time.Now()
	matches := idx.QueryAppend(nil, q.Sig, q.Size, t)
	elapsed := time.Since(start)
	sort.Strings(matches)
	fmt.Fprintf(w, "query %s:%s (%d distinct values), t* = %.2f → %d candidates in %s\n",
		file, column, q.Size, t, len(matches), elapsed.Round(time.Microsecond))
	for _, m := range matches {
		fmt.Fprintln(w, "  ", m)
	}
	return nil
}

// runBatchQuery sketches every column of the file and answers them in one
// QueryBatch dispatch — the high-throughput serving path.
func runBatchQuery(w io.Writer, idx *lshensemble.LiveIndex, h *lshensemble.Hasher, file string, t float64, workers int) error {
	cols, err := tabular.FromFile(file, tabular.Options{MinSize: -1})
	if err != nil {
		return err
	}
	if len(cols) == 0 {
		return fmt.Errorf("no columns found in %s", file)
	}
	recs := sketchColumns(h, cols)
	queries := make([]lshensemble.BatchQuery, len(recs))
	for i, r := range recs {
		queries[i] = lshensemble.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: t}
	}
	start := time.Now()
	rows := idx.QueryBatch(queries, workers)
	elapsed := time.Since(start)
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	qps := "-"
	if secs := elapsed.Seconds(); secs > 0 {
		qps = fmt.Sprintf("%.0f queries/s", float64(len(queries))/secs)
	}
	fmt.Fprintf(w, "batch %s: %d columns, t* = %.2f → %d candidates in %s (%s)\n",
		file, len(queries), t, total, elapsed.Round(time.Microsecond), qps)
	for i, row := range rows {
		sort.Strings(row)
		fmt.Fprintf(w, "  %s (%d distinct values) → %d candidates\n", cols[i].Key, recs[i].Size, len(row))
		for _, m := range row {
			fmt.Fprintln(w, "    ", m)
		}
	}
	return nil
}

func cmdQuery(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	index := fs.String("index", "index.bin", "index file written by lshed index")
	file := fs.String("file", "", "CSV file holding the query column (required)")
	column := fs.String("column", "", "query column name (required unless -batch)")
	t := fs.Float64("t", 0.7, "containment threshold t*")
	batch := fs.Bool("batch", false, "query every column of -file in one batch dispatch")
	workers := fs.Int("workers", 0, "batch query workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *file == "" || (*column == "" && !*batch) {
		return fmt.Errorf("-file and -column are required (or -file with -batch)")
	}
	if err := checkThreshold(*t); err != nil {
		return err
	}
	idx, h, err := loadIndex(*index)
	if err != nil {
		return err
	}
	defer idx.Close()
	if *batch {
		return runBatchQuery(w, idx, h, *file, *t, *workers)
	}
	return runQuery(w, idx, h, *file, *column, *t)
}

func cmdSearch(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	data := fs.String("data", "", "directory of CSV files (required)")
	file := fs.String("file", "", "CSV file holding the query column (required)")
	column := fs.String("column", "", "query column name (required unless -batch)")
	t := fs.Float64("t", 0.7, "containment threshold t*")
	partitions := fs.Int("partitions", 16, "number of cardinality partitions")
	hashes := fs.Int("hashes", 256, "MinHash signature length")
	minSize := fs.Int("minsize", 10, "discard columns with fewer distinct values")
	batch := fs.Bool("batch", false, "query every column of -file in one batch dispatch")
	workers := fs.Int("workers", 0, "batch query workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *data == "" || *file == "" || (*column == "" && !*batch) {
		return fmt.Errorf("-data, -file and -column are required (or -file with -batch)")
	}
	if err := checkThreshold(*t); err != nil {
		return err
	}
	idx, h, err := buildIndex(*data, *minSize, *hashes, *partitions)
	if err != nil {
		return err
	}
	defer idx.Close()
	if *batch {
		return runBatchQuery(w, idx, h, *file, *t, *workers)
	}
	return runQuery(w, idx, h, *file, *column, *t)
}

func cmdStats(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	index := fs.String("index", "index.bin", "index file")
	fs.Parse(args)
	idx, _, err := loadIndex(*index)
	if err != nil {
		return err
	}
	defer idx.Close()
	o, st := idx.Options(), idx.Stats()
	fmt.Fprintf(w, "domains:    %d\n", st.Domains)
	fmt.Fprintf(w, "hashes:     %d (rMax %d)\n", o.NumHash, o.RMax)
	fmt.Fprintf(w, "sketch:     %s (%d signature bytes)\n", st.Sketch, st.SignatureBytes)
	fmt.Fprintf(w, "buffered:   %d, tombstones %d\n", st.Buffered, st.Tombstones)
	fmt.Fprintf(w, "segments:   %d\n", len(st.SegmentDetail))
	for i, s := range st.SegmentDetail {
		fmt.Fprintf(w, "  %2d: sizes [%d, %d], %d domains\n", i, s.MinSize, s.MaxSize, s.Entries)
	}
	return nil
}
