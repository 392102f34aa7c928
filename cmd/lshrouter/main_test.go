package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRouterLinksNoIndex: the router sketches, scatters records and merges
// keys; it links the wire, never the index it scatters to nor the daemon
// that fronts one, nor the paper's experiments (internal/expt and the
// comparators below it). go list -deps of this command names none of them.
func TestRouterLinksNoIndex(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "lshensemble/cmd/lshrouter").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	forbidden := map[string]bool{"lshensemble": true}
	for _, pkg := range []string{"serve", "live", "core", "lshforest", "bloom", "tune", "partition", "dedup"} {
		forbidden["lshensemble/internal/"+pkg] = true
	}
	var ours []string
	for _, pkg := range strings.Fields(string(out)) {
		if forbidden[pkg] || strings.HasPrefix(pkg+"/", "lshensemble/internal/expt/") {
			t.Errorf("cmd/lshrouter links %s", pkg)
		}
		if strings.HasPrefix(pkg, "lshensemble") {
			ours = append(ours, pkg)
		}
	}
	if t.Failed() {
		t.Logf("this module's packages it links: %s", strings.Join(ours, " "))
	}
}
