package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lshensemble"
	"lshensemble/internal/serve"
	"lshensemble/internal/tabular"
)

// writeTable writes one CSV file: a header of column names, then the
// columns side by side, short ones padded with empty cells.
func writeTable(t *testing.T, path string, cols map[string][]string) {
	t.Helper()
	names := make([]string, 0, len(cols))
	rows := 0
	for name, vals := range cols {
		names = append(names, name)
		rows = max(rows, len(vals))
	}
	slices.Sort(names)
	var b strings.Builder
	b.WriteString(strings.Join(names, ",") + "\n")
	for r := 0; r < rows; r++ {
		cells := make([]string, len(names))
		for i, name := range names {
			if r < len(cols[name]) {
				cells[i] = cols[name][r]
			}
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func values(prefix string, lo, hi int) []string {
	var out []string
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// lake writes a small data lake — cities ⊃ capitals, animals disjoint from
// both — and a query table beside it: q holds 30 cities and 10 values no
// table has, r 20 animals.
func lake(t *testing.T) (dir, queryFile string) {
	t.Helper()
	root := t.TempDir()
	dir = filepath.Join(root, "lake")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeTable(t, filepath.Join(dir, "cities.csv"), map[string][]string{
		"city": values("c", 0, 60),
		"code": values("k", 0, 30),
	})
	writeTable(t, filepath.Join(dir, "capitals.csv"), map[string][]string{
		"capital": values("c", 0, 20),
	})
	writeTable(t, filepath.Join(dir, "animals.csv"), map[string][]string{
		"animal": values("a", 0, 40),
	})
	queryFile = filepath.Join(root, "query.csv")
	writeTable(t, queryFile, map[string][]string{
		"q": append(values("c", 0, 30), values("junk", 0, 10)...),
		"r": values("a", 0, 20),
	})
	return dir, queryFile
}

// run runs one subcommand and returns what it printed.
func run(t *testing.T, cmd func([]string, io.Writer) error, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmd(args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String()
}

// printedRows collects the keys an answer printed: one row for a single
// query, one per column for a batch, each in printed order.
func printedRows(out string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "query "), strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			rows = append(rows, []string{}) // a query's or a batch row's header
		case strings.HasPrefix(line, "   "):
			rows[len(rows)-1] = append(rows[len(rows)-1], strings.TrimSpace(line))
		}
	}
	return rows
}

// TestIndexQuerySearchStats drives every subcommand over one lake. Each answer
// must be what BuildLive + QueryAppend give over the same columns, and the
// index file must be a daemon snapshot under lshed's seed.
func TestIndexQuerySearchStats(t *testing.T) {
	dir, queryFile := lake(t)
	index := filepath.Join(t.TempDir(), "index.bin")
	run(t, cmdIndex, "-data", dir, "-out", index)

	h := lshensemble.NewHasher(256, hashSeed)
	cols, err := tabular.FromDir(dir, tabular.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []lshensemble.DomainRecord
	for _, c := range cols {
		recs = append(recs, lshensemble.SketchStrings(h, c.Key, c.Values))
	}
	ref, err := lshensemble.BuildLive(recs, lshensemble.LiveOptions{ManualCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	qcols, err := tabular.FromFile(queryFile, tabular.Options{MinSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := func(col tabular.Column, th float64) []string {
		q := lshensemble.SketchStrings(h, "query", col.Values)
		keys := ref.QueryAppend(nil, q.Sig, q.Size, th)
		slices.Sort(keys)
		return keys
	}

	for _, th := range []string{"0.3", "0.5", "1"} {
		var tStar float64
		fmt.Sscan(th, &tStar)
		for _, col := range qcols {
			name := keyColumn(col.Key)
			for _, out := range []string{
				run(t, cmdQuery, "-index", index, "-file", queryFile, "-column", name, "-t", th),
				run(t, cmdSearch, "-data", dir, "-file", queryFile, "-column", name, "-t", th),
			} {
				if got := printedRows(out); len(got) != 1 || !slices.Equal(got[0], want(col, tStar)) {
					t.Fatalf("%s at t*=%s: printed %q, BuildLive answers %q", name, th, got, want(col, tStar))
				}
			}
		}
		got := printedRows(run(t, cmdQuery, "-index", index, "-file", queryFile, "-batch", "-t", th))
		if len(got) != len(qcols) {
			t.Fatalf("batch at t*=%s printed %d rows for %d columns", th, len(got), len(qcols))
		}
		for i, col := range qcols {
			if !slices.Equal(got[i], want(col, tStar)) {
				t.Fatalf("batch row %s at t*=%s: printed %q, BuildLive answers %q", col.Key, th, got[i], want(col, tStar))
			}
		}
	}
	// Not vacuous: the cities the query column holds are found, the animals
	// are not.
	if got := want(qcols[0], 0.5); !slices.Contains(got, "cities:city") || slices.Contains(got, "animals:animal") {
		t.Fatalf("q at t*=0.5 answers %q", got)
	}

	stats := run(t, cmdStats, "-index", index)
	for _, line := range []string{fmt.Sprintf("domains:    %d\n", ref.Len()), "segments:   1\n", "sketch:     minwise16"} {
		if !strings.Contains(stats, line) {
			t.Fatalf("stats lacks %q:\n%s", line, stats)
		}
	}

	loaded, err := serve.LoadSnapshot(index, hashSeed, lshensemble.LiveOptions{ManualCompaction: true})
	if err != nil {
		t.Fatalf("the daemon cannot boot the index file: %v", err)
	}
	if loaded.Len() != ref.Len() {
		t.Fatalf("the daemon boots %d domains, lshed indexed %d", loaded.Len(), ref.Len())
	}
	if _, err := serve.LoadSnapshot(index, hashSeed+1, lshensemble.LiveOptions{}); err == nil {
		t.Fatal("the index file booted under another seed")
	}
}

// TestRefusals: what lshed cannot serve is an error, never a panic and never
// a quietly changed request.
func TestRefusals(t *testing.T) {
	dir, queryFile := lake(t)
	tmp := t.TempDir()
	index := filepath.Join(tmp, "index.bin")
	run(t, cmdIndex, "-data", dir, "-out", index)
	// The static index file lshed used to write: magic, then a header.
	static := filepath.Join(tmp, "static.bin")
	if err := os.WriteFile(static, []byte("LSHE\x00\x01\x00\x00\x08\x00\x00\x00\x10\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cmd  func([]string, io.Writer) error
		args []string
		want string
	}{
		{"index -hashes 0", cmdIndex, []string{"-data", dir, "-out", filepath.Join(tmp, "h0.bin"), "-hashes", "0"}, "-hashes 0"},
		{"search -hashes 0", cmdSearch, []string{"-data", dir, "-file", queryFile, "-column", "q", "-hashes", "0"}, "-hashes 0"},
		{"index -hashes 65537", cmdIndex, []string{"-data", dir, "-out", filepath.Join(tmp, "h65537.bin"), "-hashes", "65537"}, "-hashes 65537"},
		{"search -hashes 65537", cmdSearch, []string{"-data", dir, "-file", queryFile, "-column", "q", "-hashes", "65537"}, "-hashes 65537"},
		{"query -t 2", cmdQuery, []string{"-index", index, "-file", queryFile, "-column", "q", "-t", "2"}, "threshold 2 out of range (0, 1]"},
		{"query -t -1", cmdQuery, []string{"-index", index, "-file", queryFile, "-batch", "-t", "-1"}, "threshold -1 out of range (0, 1]"},
		{"search -t 2", cmdSearch, []string{"-data", dir, "-file", queryFile, "-column", "q", "-t", "2"}, "threshold 2 out of range (0, 1]"},
		{"query static file", cmdQuery, []string{"-index", static, "-file", queryFile, "-column", "q"}, "not a lshensembled snapshot"},
		{"stats static file", cmdStats, []string{"-index", static}, "not a lshensembled snapshot"},
	} {
		var out bytes.Buffer
		if err := c.cmd(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
