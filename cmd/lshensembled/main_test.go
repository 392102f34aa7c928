package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonLinksNoExperiments: the paper's experiments and the comparators
// they evaluate (internal/expt and every package below it) belong to
// cmd/experiments, never to a served binary. go list -deps of this command
// names none of them.
func TestDaemonLinksNoExperiments(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "lshensemble/cmd/lshensembled").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg+"/", "lshensemble/internal/expt/") {
			t.Errorf("cmd/lshensembled links %s", pkg)
		}
	}
}
