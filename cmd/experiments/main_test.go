package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// timing matches the line each experiment ends with: its wall time, the one
// part of the output that is not a function of the flags.
var timing = regexp.MustCompile(`(?m)^  \[\S+ in \S+\]\n`)

// TestDeterministicRows pins every experiment whose rows depend only on the
// flags to the output recorded before the sketch frontier ran through
// runAccuracy and the figures printed through printRows. fig1, fig9 and tab4
// are left out: fig1 ignores -n and takes seconds, and the other two print
// wall times.
func TestDeterministicRows(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "tab3,fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig10,frontier", "-n", "300", "-queries", "5"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := timing.ReplaceAllString(stdout.String(), ""); got != string(want) {
		t.Errorf("the rows moved; got:\n%s", got)
	}
}

// TestRefusals: flags and configs that would measure something other than
// what the output says are refused with an exit status, never a panic.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		says string
	}{
		{[]string{"-run", "fig4", "-n", "-5"}, 2, "-n -5 must not be negative"},
		{[]string{"-run", "fig9", "-perfn", "-10"}, 2, "-perfn -10 must not be negative"},
		{[]string{"-run", "fig4", "-n", "300", "-queries", "-3"}, 2, "-queries -3 must not be negative"},
		{[]string{"-run", "fig9", "-perfn", "3"}, 1, "NumDomains 3 is fewer than Steps 5"},
		{[]string{"-run", "tab4", "-perfn", "3"}, 1, "NumDomains 3 is fewer than Shards 5"},
		{[]string{"-run", "nope"}, 1, `unknown experiment "nope"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.says) {
			t.Errorf("%q: exit status %d, stderr %q; want %d and %q", c.args, code, stderr.String(), c.code, c.says)
		}
		if c.code == 2 && stdout.Len() != 0 {
			t.Errorf("%q: refused flags still ran an experiment:\n%s", c.args, stdout.String())
		}
	}
}
