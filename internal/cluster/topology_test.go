//go:build unix

package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lshensemble/internal/serve"
	"lshensemble/internal/wire"
)

// The deployed topologies — one daemon, a -data-dir -mmap cold boot, each
// -sketch backend, a router in front of two shards — run here as real
// processes: this test binary re-executed as lshensembled or lshrouter. This
// package's tests are the one binary that reaches both serve.Main and Main.
// Every process listens on 127.0.0.1:0 and the test reads the bound port off
// its start-up line.

// roleEnv names the binary a re-executed test process runs as.
const roleEnv = "LSHENSEMBLE_TEST_ROLE"

func TestMain(m *testing.M) {
	mains := map[string]func(context.Context, []string, io.Writer) int{
		"lshensembled": serve.Main,
		"lshrouter":    Main,
	}
	if run, ok := mains[os.Getenv(roleEnv)]; ok {
		// The test holds the other end of stdin, so a child whose test
		// process died sees EOF here and does not outlive it.
		go func() {
			io.Copy(io.Discard, os.Stdin)
			os.Exit(3)
		}()
		os.Exit(run(context.Background(), os.Args, os.Stderr))
	}
	os.Exit(m.Run())
}

// listening is the start-up line of either binary: Run logs the address it
// bound right after the message.
var listening = regexp.MustCompile(`msg=(?:serving|routing) addr=(\S+)`)

// servingSketch is the backend a daemon's start-up line names.
var servingSketch = regexp.MustCompile(`msg=serving .*\bsketch=(\S+)`)

// proc is one child process and its stderr.
type proc struct {
	cmd   *exec.Cmd
	done  chan struct{} // closed when the process has exited
	mu    sync.Mutex
	log   bytes.Buffer
	url   string        // http:// and the bound address, once logged
	ready chan struct{} // closed when url is set
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log.Write(b)
	if p.url == "" {
		if m := listening.FindSubmatch(p.log.Bytes()); m != nil {
			p.url = "http://" + string(m[1])
			close(p.ready)
		}
	}
	return len(b), nil
}

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// start runs the binary role with args. The process is killed, if it still
// runs, when the test ends; its log is printed if the test failed.
func start(t *testing.T, role string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(os.Args[0], args...), done: make(chan struct{}), ready: make(chan struct{})}
	// A race-enabled child would otherwise wait a second before exiting.
	p.cmd.Env = append(os.Environ(), roleEnv+"="+role, "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
	p.cmd.Stderr = p
	stdin, err := p.cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		stdin.Close()
		if t.Failed() {
			t.Logf("%s %s:\n%s", role, strings.Join(args, " "), p.logText())
		}
	})
	return p
}

// serving starts role listening on a free loopback port and returns it once
// it has bound, as http://127.0.0.1:port.
func serving(t *testing.T, role string, args ...string) *proc {
	t.Helper()
	p := start(t, role, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	select {
	case <-p.ready:
		return p
	case <-p.done:
		t.Fatalf("%s exited before it listened, status %d:\n%s", role, p.cmd.ProcessState.ExitCode(), p.logText())
	case <-time.After(time.Minute):
		t.Fatalf("%s did not listen within a minute:\n%s", role, p.logText())
	}
	return nil
}

// exit waits for the process to end and returns its exit status.
func (p *proc) exit(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(time.Minute):
		t.Fatalf("%v did not exit within a minute", p.cmd.Args)
		return 0
	}
}

// term sends SIGTERM and requires a clean exit.
func (p *proc) term(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p.exit(t); code != 0 {
		t.Fatalf("exit status %d after SIGTERM, want 0", code)
	}
}

// snapshotSaved requires a non-empty snapshot file at path.
func snapshotSaved(t *testing.T, path string) {
	t.Helper()
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot saved at %s: %v", path, err)
	}
}

// metric is the value of the sample named series (name and labels) in a
// /metrics page; a missing sample fails the test.
func metric(t *testing.T, page, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no sample %s in:\n%s", series, page)
	return 0
}

// TestTopologyExitStatuses pins the exit status of each start-up refusal:
// 2 for a flag neither binary knows, 1 for a flag value they refuse.
func TestTopologyExitStatuses(t *testing.T) {
	for _, c := range []struct {
		role string
		args []string
		want int
	}{
		{"lshensembled", []string{"-no-metrics"}, 2},
		{"lshrouter", []string{"-no-metrics"}, 2},
		{"lshensembled", []string{"-mmap"}, 1},
		{"lshensembled", []string{"-sketch", "kmv"}, 1},
		{"lshensembled", []string{"-sketch", "minwise8"}, 1},
		{"lshensembled", []string{"-seal", "-5"}, 1},
		{"lshensembled", []string{"-max-segments", "-1"}, 1},
		{"lshensembled", []string{"-hashes", "65537"}, 1},
		{"lshrouter", []string{"-shards", "localhost:7447"}, 1},
	} {
		args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
		if got := start(t, c.role, args...).exit(t); got != c.want {
			t.Errorf("%s %s: exit status %d, want %d", c.role, strings.Join(c.args, " "), got, c.want)
		}
	}
}

// TestTopologyDaemon: one daemon with its defaults takes adds, answers the
// three query shapes, deletes and compacts, exports /metrics, saves its
// snapshot on SIGTERM and serves it after a reboot.
func TestTopologyDaemon(t *testing.T) {
	t.Parallel()
	snap := filepath.Join(t.TempDir(), "index.snap")
	d := serving(t, "lshensembled", "-snapshot", snap)
	if code := getJSON(t, d.url+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	// sub ⊂ super, far is disjoint from both.
	sub, super, far := windowValues(0)[:10], windowValues(0), windowValues(500)
	for _, c := range []struct {
		key    string
		values []string
	}{{"sub", sub}, {"super", super}, {"far", far}} {
		var add wire.AddResponse
		if code := postJSON(t, d.url+"/add", wire.AddRequest{Key: c.key, Values: c.values}, &add); code != http.StatusOK || add.Size != len(c.values) || add.Replaced {
			t.Fatalf("add %s: HTTP %d %+v", c.key, code, add)
		}
	}

	var q wire.QueryResponse
	postJSON(t, d.url+"/query", wire.QueryRequest{Values: sub, Threshold: 1}, &q)
	if !containsKey(q.Matches, "sub") || !containsKey(q.Matches, "super") || containsKey(q.Matches, "far") {
		t.Fatalf("query: %v, want sub and super and not far", q.Matches)
	}
	var top wire.TopKResponse
	postJSON(t, d.url+"/query/topk", wire.TopKRequest{Values: sub, K: 2}, &top)
	if len(top.Matches) == 0 || top.Matches[0].EstContainment <= 0 {
		t.Fatalf("topk: %+v, want ranked matches with an estimated containment", top.Matches)
	}
	for _, m := range top.Matches {
		if m.Key == "far" {
			t.Fatalf("topk ranked the disjoint domain: %+v", top.Matches)
		}
	}
	var raw map[string]any
	if getJSON(t, d.url+"/stats", &raw); raw["planner"] == nil {
		t.Fatalf("stats without planner counters: %v", raw)
	}
	// A new index with no -sketch stores 16-bit minima with 32-bit band leads.
	requireBackend(t, d, "minwise16")
	var batch wire.BatchResponse
	postJSON(t, d.url+"/query/batch", wire.BatchRequest{Queries: []wire.QueryRequest{
		{Values: sub, Threshold: 1}, {Values: far, Threshold: 0.9},
	}}, &batch)
	if len(batch.Rows) != 2 || !containsKey(batch.Rows[0].Matches, "sub") || !containsKey(batch.Rows[1].Matches, "far") {
		t.Fatalf("batch: %+v", batch.Rows)
	}

	var del wire.DeleteResponse
	if postJSON(t, d.url+"/delete", wire.DeleteRequest{Key: "super"}, &del); !del.Deleted {
		t.Fatal("delete of a stored key reported false")
	}
	postJSON(t, d.url+"/query", wire.QueryRequest{Values: sub, Threshold: 1}, &q)
	if containsKey(q.Matches, "super") {
		t.Fatalf("deleted key still matches: %v", q.Matches)
	}
	var stats serve.StatsResponse
	if getJSON(t, d.url+"/stats", &stats); stats.Domains != 2 {
		t.Fatalf("stats after the delete: %d domains, want 2", stats.Domains)
	}
	if postJSON(t, d.url+"/compact", nil, &stats); stats.Tombstones != 0 {
		t.Fatalf("compact left %d tombstones", stats.Tombstones)
	}
	var saved serve.SaveResponse
	if postJSON(t, d.url+"/save", nil, &saved); saved.Bytes == 0 {
		t.Fatalf("save: %+v", saved)
	}

	page := scrapeText(t, d.url)
	for _, want := range []string{
		"# TYPE lshensembled_http_requests_total counter",
		"# TYPE lshensembled_live_query_seconds histogram",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	metric(t, page, `lshensembled_http_requests_total{code="2xx",endpoint="query"}`)
	metric(t, page, `lshensembled_live_query_seconds_count{op="query"}`)
	metric(t, page, `lshensembled_planner_segments_total{decision="probed"}`)
	if n := metric(t, page, "lshensembled_live_domains"); n != 2 {
		t.Errorf("lshensembled_live_domains %v, want 2", n)
	}

	// SIGTERM saves the snapshot (the file /save wrote is removed first); a
	// reboot on it serves the same corpus.
	os.Remove(snap)
	d.term(t)
	snapshotSaved(t, snap)
	d = serving(t, "lshensembled", "-snapshot", snap)
	if getJSON(t, d.url+"/stats", &stats); stats.Domains != 2 {
		t.Fatalf("reboot serves %d domains, want 2", stats.Domains)
	}
	postJSON(t, d.url+"/query", wire.QueryRequest{Values: sub, Threshold: 1}, &q)
	if !containsKey(q.Matches, "sub") {
		t.Fatalf("reboot query: %v, want sub", q.Matches)
	}
}

// TestTopologyDataDirMmap: a -data-dir -mmap daemon spills sealed segments to
// files and names its MANIFEST on /save, and a cold boot of the directory
// serves them mapped, without replaying any ingest.
func TestTopologyDataDirMmap(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := serving(t, "lshensembled", "-data-dir", dir, "-mmap", "-seal", "4")
	for i := 1; i <= 9; i++ {
		addKey(t, d.url, "col:"+strconv.Itoa(i), windowValues(100 * i)[:4])
	}
	if code := postJSON(t, d.url+"/compact", nil, nil); code != http.StatusOK {
		t.Fatalf("compact: HTTP %d", code)
	}
	mapped := func(what string) {
		t.Helper()
		var stats serve.StatsResponse
		getJSON(t, d.url+"/stats", &stats)
		if len(stats.SegmentDetail) == 0 {
			t.Fatalf("%s: no sealed segments: %+v", what, stats)
		}
		for _, seg := range stats.SegmentDetail {
			if seg.Backing != "mmap" || seg.FileBytes == 0 {
				t.Fatalf("%s: segment %+v is not a mapped file", what, seg)
			}
		}
		if stats.Domains != 9 {
			t.Fatalf("%s: %d domains, want 9", what, stats.Domains)
		}
	}
	mapped("after compaction")
	var saved serve.SaveResponse
	if postJSON(t, d.url+"/save", nil, &saved); filepath.Base(saved.Path) != "MANIFEST" {
		t.Fatalf("save wrote %q, want the data directory's MANIFEST", saved.Path)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg")); len(segs) == 0 {
		t.Fatal("no segment files in the data directory")
	}
	d.term(t)

	d = serving(t, "lshensembled", "-data-dir", dir, "-mmap")
	mapped("cold boot")
	var q wire.QueryResponse
	postJSON(t, d.url+"/query", wire.QueryRequest{Values: windowValues(300)[:4], Threshold: 1}, &q)
	if !containsKey(q.Matches, "col:3") {
		t.Fatalf("cold-boot query: %v, want col:3", q.Matches)
	}
	page := scrapeText(t, d.url)
	if metric(t, page, "lshensembled_live_segment_file_bytes") == 0 {
		t.Error("lshensembled_live_segment_file_bytes is 0 with mapped segments serving")
	}
	metric(t, page, "lshensembled_live_segment_resident_bytes")
}

// addKey adds one domain and requires a 200.
func addKey(t *testing.T, base, key string, values []string) {
	t.Helper()
	if code := postJSON(t, base+"/add", wire.AddRequest{Key: key, Values: values}, nil); code != http.StatusOK {
		t.Fatalf("add %s: HTTP %d", key, code)
	}
}

// requireBackend requires a daemon to report backend on /stats and to have
// named it on its serving line.
func requireBackend(t *testing.T, d *proc, backend string) {
	t.Helper()
	var stats serve.StatsResponse
	if getJSON(t, d.url+"/stats", &stats); stats.Sketch != backend {
		t.Fatalf("/stats reports sketch %q, want %q", stats.Sketch, backend)
	}
	if m := servingSketch.FindStringSubmatch(d.logText()); m == nil || m[1] != backend {
		t.Fatalf("serving line names sketch %v, want %s", m, backend)
	}
}

// TestTopologySketchBackends: each -sketch backend serves, reports itself on
// /stats and its serving line and round-trips its snapshot, and a daemon of
// any other backend refuses to boot on that snapshot.
func TestTopologySketchBackends(t *testing.T) {
	for _, backend := range []string{"minwise64", "minwise32", "minwise16"} {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			snap := filepath.Join(t.TempDir(), "index.snap")
			d := serving(t, "lshensembled", "-sketch", backend, "-snapshot", snap)
			sub, super := windowValues(0)[:4], windowValues(0)[:6]
			var add wire.AddResponse
			if postJSON(t, d.url+"/add", wire.AddRequest{Key: "cols:a", Values: sub}, &add); add.Size != 4 {
				t.Fatalf("add: %+v", add)
			}
			addKey(t, d.url, "cols:b", super)
			// Truncated signatures keep recall: the superset matches at t* = 1.
			var q wire.QueryResponse
			postJSON(t, d.url+"/query", wire.QueryRequest{Values: sub, Threshold: 1}, &q)
			if !containsKey(q.Matches, "cols:b") {
				t.Fatalf("query: %v, want cols:b", q.Matches)
			}
			requireBackend(t, d, backend)
			d.term(t)
			snapshotSaved(t, snap)

			d = serving(t, "lshensembled", "-sketch", backend, "-snapshot", snap)
			var stats serve.StatsResponse
			if getJSON(t, d.url+"/stats", &stats); stats.Domains != 2 {
				t.Fatalf("reboot serves %d domains, want 2", stats.Domains)
			}
			d.term(t)
			for _, other := range []string{"minwise64", "minwise32", "minwise16"} {
				if other == backend {
					continue
				}
				if code := start(t, "lshensembled", "-addr", "127.0.0.1:0", "-sketch", other, "-snapshot", snap).exit(t); code != 1 {
					t.Fatalf("-sketch %s booted on a %s snapshot: exit status %d, want 1", other, backend, code)
				}
			}
		})
	}
}

// TestTopologyUpgradeKeepsBackend: a daemon started with no -sketch on a
// file written under the old minwise64 default — an inline snapshot, or a
// -data-dir -mmap manifest of LSEG v1 segment files — serves it as
// minwise64, answers as the daemon that wrote it did, and seals new adds
// into minwise64, so that its re-saved file boots under -sketch minwise64.
func TestTopologyUpgradeKeepsBackend(t *testing.T) {
	for _, c := range []struct {
		name string
		args func(dir string) []string
	}{
		{"snapshot", func(dir string) []string { return []string{"-snapshot", filepath.Join(dir, "index.snap")} }},
		{"data-dir-mmap", func(dir string) []string { return []string{"-data-dir", dir, "-mmap"} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := append(c.args(dir), "-seal", "4")
			d := serving(t, "lshensembled", append(args, "-sketch", "minwise64")...)
			addAndCompact(t, d.url, 0, 9)
			before := answers(t, d.url)
			d.term(t)

			d = serving(t, "lshensembled", args...)
			requireBackend(t, d, "minwise64")
			if got := answers(t, d.url); got != before {
				t.Fatalf("with no -sketch the daemon answers\n%s\nwhere the minwise64 daemon answered\n%s", got, before)
			}
			addAndCompact(t, d.url, 9, 18)
			d.term(t)
			segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			for _, seg := range segs {
				// LSEG v1 is the minwise64 layout; other backends write v2.
				if b, err := os.ReadFile(seg); err != nil || len(b) < 8 || b[4] != 1 {
					t.Fatalf("segment %s is not LSEG v1 (%v)", seg, err)
				}
			}
			if c.name == "data-dir-mmap" && len(segs) == 0 {
				t.Fatal("no segment files in the data directory")
			}

			d = serving(t, "lshensembled", append(args, "-sketch", "minwise64")...)
			var stats serve.StatsResponse
			if getJSON(t, d.url+"/stats", &stats); stats.Domains != 18 {
				t.Fatalf("the re-saved file serves %d domains, want 18", stats.Domains)
			}
		})
	}
}

// addAndCompact adds domains [lo, hi) and compacts, sealing them all.
func addAndCompact(t *testing.T, base string, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		addKey(t, base, domainKey(i), windowValues(3*i))
	}
	if code := postJSON(t, base+"/compact", nil, nil); code != http.StatusOK {
		t.Fatalf("compact: HTTP %d", code)
	}
}

// answers renders a daemon's threshold and top-k answers to a fixed set of
// queries over the domains addAndCompact(0, 9) adds.
func answers(t *testing.T, base string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < 27; i += 2 {
		vals := windowValues(i)[:12]
		for _, th := range []float64{0.3, 0.7, 1} {
			var q wire.QueryResponse
			postJSON(t, base+"/query", wire.QueryRequest{Values: vals, Threshold: th}, &q)
			fmt.Fprintln(&b, i, th, q.Matches)
		}
		var top wire.TopKResponse
		postJSON(t, base+"/query/topk", wire.TopKRequest{Values: vals, K: 4}, &top)
		fmt.Fprintln(&b, i, top.Matches)
	}
	return b.String()
}

// TestTopologyMixedBackendFleet: a rolling upgrade leaves each shard on its
// snapshot's backend, so minwise64 and minwise32 shards serve side by side.
// Their router merges the threshold answers of a minwise64 fleet, and top-k
// scores that differ only by minwise32's 2⁻³² chance-collision correction.
func TestTopologyMixedBackendFleet(t *testing.T) {
	t.Parallel()
	fleet := func(backend string, second ...string) string {
		a := serving(t, "lshensembled", "-sketch", "minwise64")
		b := serving(t, "lshensembled", second...)
		r := serving(t, "lshrouter", "-shards", a.url+","+b.url)
		addVia(t, r.url, 24)
		requireBackend(t, b, backend)
		var stats serve.StatsResponse
		if getJSON(t, b.url+"/stats", &stats); stats.Domains == 0 {
			t.Fatalf("the %s shard owns no domain of 24", backend)
		}
		return r.url
	}
	full, mixed := fleet("minwise64", "-sketch", "minwise64"), fleet("minwise32", "-sketch", "minwise32")
	for i := 0; i < 24; i += 3 { // each query is domain i, so no answer is empty
		for _, th := range []float64{0.3, 0.7, 1} {
			var a, b RouterQueryResponse
			postJSON(t, full+"/query", wire.QueryRequest{Values: windowValues(i), Threshold: th}, &a)
			postJSON(t, mixed+"/query", wire.QueryRequest{Values: windowValues(i), Threshold: th}, &b)
			if a.Partial || b.Partial || len(a.Matches) == 0 || !sameStrings(a.Matches, b.Matches) {
				t.Fatalf("query %d at t*=%v: the mixed fleet answers %+v, the minwise64 fleet %+v", i, th, b, a)
			}
		}
		var a, b RouterTopKResponse
		postJSON(t, full+"/query/topk", wire.TopKRequest{Values: windowValues(i), K: 24}, &a)
		postJSON(t, mixed+"/query/topk", wire.TopKRequest{Values: windowValues(i), K: 24}, &b)
		score := make(map[string]float64)
		for _, m := range a.Matches {
			score[m.Key] = m.EstContainment
		}
		for _, m := range b.Matches {
			if s, ok := score[m.Key]; !ok || len(b.Matches) != len(a.Matches) || math.Abs(s-m.EstContainment) > 1e-9 {
				t.Fatalf("topk %d: the mixed fleet ranks %+v, the minwise64 fleet %+v", i, b.Matches, a.Matches)
			}
		}
	}
}

// TestTopologyRouterTwoShards: a router in front of two shards places writes
// on both and answers every query shape; a shard killed with SIGKILL turns
// answers partial until the health checker demotes it, then clean over the
// survivor, and the router counts all of it.
func TestTopologyRouterTwoShards(t *testing.T) {
	t.Parallel()
	shards := []*proc{serving(t, "lshensembled"), serving(t, "lshensembled")}
	r := serving(t, "lshrouter", "-shards", shards[0].url+","+shards[1].url,
		"-health-interval", "100ms", "-health-fail", "2")
	addVia(t, r.url, 16)
	if code := getJSON(t, r.url+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("router healthz: HTTP %d", code)
	}
	for _, s := range shards {
		var stats serve.StatsResponse
		if getJSON(t, s.url+"/stats", &stats); stats.Domains == 0 {
			t.Fatalf("shard %s owns no domain of 16", s.url)
		}
	}

	var q RouterQueryResponse
	postJSON(t, r.url+"/query", wire.QueryRequest{Values: windowValues(7), Threshold: 1}, &q)
	if !containsKey(q.Matches, domainKey(7)) {
		t.Fatalf("query: %v, want %s", q.Matches, domainKey(7))
	}
	var top RouterTopKResponse
	postJSON(t, r.url+"/query/topk", wire.TopKRequest{Values: windowValues(7), K: 3}, &top)
	if len(top.Matches) == 0 || top.Matches[0].Key != domainKey(7) || top.Matches[0].EstContainment <= 0 {
		t.Fatalf("topk: %+v, want %s ranked first", top.Matches, domainKey(7))
	}
	var batch RouterBatchResponse
	postJSON(t, r.url+"/query/batch", wire.BatchRequest{Queries: []wire.QueryRequest{{Values: windowValues(2), Threshold: 1}}}, &batch)
	if len(batch.Rows) != 1 || !containsKey(batch.Rows[0].Matches, domainKey(2)) {
		t.Fatalf("batch: %+v, want %s", batch.Rows, domainKey(2))
	}
	var del RouterDeleteResponse
	if postJSON(t, r.url+"/delete", wire.DeleteRequest{Key: domainKey(7)}, &del); !del.Deleted {
		t.Fatalf("routed delete: %+v", del)
	}
	postJSON(t, r.url+"/query", wire.QueryRequest{Values: windowValues(7), Threshold: 1}, &q)
	if containsKey(q.Matches, domainKey(7)) {
		t.Fatalf("deleted key still matches: %v", q.Matches)
	}

	// Both shards run the default -seed and -hashes, which the router adopted.
	var ring RingResponse
	getJSON(t, r.url+"/ring", &ring)
	if f := ring.Family; f == nil || f.Seed != 42 || f.NumHash != 256 {
		t.Fatalf("ring family %+v, want seed 42 and 256 hashes", f)
	}

	// SIGKILL one shard: the router does not know yet, and answers partial.
	dead := shards[1]
	dead.cmd.Process.Kill()
	dead.exit(t)
	q = RouterQueryResponse{}
	if code := postJSON(t, r.url+"/query", wire.QueryRequest{Values: windowValues(2), Threshold: 1}, &q); code != http.StatusOK || !q.Partial {
		t.Fatalf("query with a dead shard: HTTP %d partial=%v, want a partial 200", code, q.Partial)
	}
	// The health checker demotes it; answers are clean over the survivor.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(20 * time.Millisecond) {
		getJSON(t, r.url+"/ring", &ring)
		if demoted(ring, dead.url) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not demoted within a minute: %+v", dead.url, ring.Shards)
		}
	}
	q = RouterQueryResponse{}
	if code := postJSON(t, r.url+"/query", wire.QueryRequest{Values: windowValues(2), Threshold: 0.5}, &q); code != http.StatusOK || q.Partial {
		t.Fatalf("query after the demotion: HTTP %d partial=%v, want a clean 200", code, q.Partial)
	}
	page := scrapeText(t, r.url)
	if n := metric(t, page, `lshrouter_shard_demotions_total{shard="`+dead.url+`"}`); n != 1 {
		t.Errorf("%v demotions of %s, want 1", n, dead.url)
	}
	if n := metric(t, page, "lshrouter_shards_live"); n != 1 {
		t.Errorf("lshrouter_shards_live %v, want 1", n)
	}
	if metric(t, page, "lshrouter_partial_responses_total") == 0 {
		t.Error("no partial response counted")
	}
	metric(t, page, `lshrouter_http_requests_total{code="2xx",endpoint="query"}`)
}

// demoted reports whether /ring shows name out of the ring.
func demoted(ring RingResponse, name string) bool {
	for _, si := range ring.Shards {
		if si.Name == name {
			return !si.Alive
		}
	}
	return false
}
