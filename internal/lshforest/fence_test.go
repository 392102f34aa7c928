package lshforest

import (
	"fmt"
	"slices"
	"testing"

	"lshensemble/internal/xrand"
)

// runsColumn returns n ascending leading values made of runs of equal values:
// a run of length l at each start of runs (a [start, l] pair), and filler runs
// of fill entries elsewhere, cut short where an explicit run begins. Adjacent
// runs' values are two apart, so v±1 of a stored value is never stored.
func runsColumn(n, fill int, runs [][2]int) []uint64 {
	col := make([]uint64, 0, n)
	v := uint64(2)
	for i := 0; i < n; v += 2 {
		l := fill
		for _, r := range runs {
			if r[0] == i {
				l = r[1]
			} else if r[0] > i && r[0] < i+l {
				l = r[0] - i
			}
		}
		for ; l > 0 && i < n; l, i = l-1, i+1 {
			col = append(col, v)
		}
	}
	return col
}

// widthMask is the mask that truncates a value to bytes bytes.
func widthMask(bytes int) uint64 { return ^uint64(0) >> (64 - 8*uint(bytes)) }

// leadBytes is the width a probe must compare a tree's lead at in a store of
// width bytes: the width, and 4 bytes under a 2-byte store.
func leadBytes(width int) int { return max(width, 4) }

// linearProbe is the reference the fenced probe is held to: it walks tree t's
// slot order end to end and reports every entry whose first r stored values of
// the tree equal the query's, the lead truncated to the lead width and the
// others to the store's width.
func linearProbe(f *Forest, q []uint64, t, r int) []uint32 {
	var out []uint32
	var sig []uint64
	for _, slot := range f.Tree(t) {
		sig = f.AppendSigWidened(sig[:0], int(slot))
		off := t * f.RMax()
		match := true
		for k := off; k < off+r; k++ {
			mask := widthMask(f.Width())
			if k == off {
				mask = widthMask(leadBytes(f.Width()))
			}
			match = match && sig[k] == q[k]&mask
		}
		if match {
			out = append(out, f.IDs()[slot])
		}
	}
	return out
}

// runsForest builds a one-tree forest (rMax 3) over the n leading values of
// runsColumn(n, fill, runs), the entries in shuffled slot order; the two
// deeper values of each draw from {0, 1} so that a run splits on refinement.
// Its ids are 7·i + base.
func runsForest(width, n, fill int, runs [][2]int, seed uint64, base uint32) *Forest {
	col := runsColumn(n, fill, runs)
	rng := xrand.New(seed)
	ids := make([]uint32, n)
	sigs := make([][]uint64, n)
	for i, p := range rng.Perm(n) {
		ids[i] = uint32(7*i) + base
		sigs[i] = []uint64{col[p], uint64(rng.Intn(2)), uint64(rng.Intn(2))}
	}
	return build(3, 3, width, ids, sigs)
}

// edgeLeads returns the leading values a probe of columns made of vals must
// be tried with: below, between and above every stored value, the lead
// width's extremes, a value that only truncation makes equal to a stored one,
// and one that only a lead narrower than 32 bits would.
func edgeLeads(width int, vals []uint64) []uint64 {
	top := widthMask(LeadWidth(width))
	if width == 8 {
		top = ^uint64(0) >> 3
	}
	leads := []uint64{0, 1, top}
	for _, x := range vals {
		// x|2^40 truncates to x below width 8 and is absent at 8; x|2^16 is
		// absent at every width, the 2-byte store's 4-byte leads included.
		leads = append(leads, x-1, x, x+1, x|1<<40, x|1<<16)
	}
	return leads
}

// TestFencedProbeMatchesLinearScan holds the probe (fence search, one
// stretch, galloping to the run's end, depth-r refine) against a linear scan
// of the store for every width and depth — the 2-byte store's columns and
// fences at its 4-byte lead width — on columns built to hit the fence's
// edges: runs that cross or start on a fence boundary, runs at the first and
// last entry, an all-equal column, one entry, fewer entries than one stretch
// and exactly one stretch, and queries below, between and above every stored
// value. The built forest and a view of it (whose fences are built on its
// first probe) must both agree with the scan, report for report. Then every
// column of a width, with columns whose fences hold 0, 1, s−1, s and s+1
// entries, goes through one Probe per query, built and view forests
// alternating, so fences of every length share one chunk of the lockstep
// search: Probe must report each forest's scan in job order.
func TestFencedProbeMatchesLinearScan(t *testing.T) {
	const rMax = 3
	for _, width := range []int{2, 4, 8} {
		s := fenceLine / LeadWidth(width)
		fill := max(1, 4/width) // narrow widths: fewer distinct values, all below 2^8
		cases := []struct {
			name string
			n    int
			runs [][2]int
		}{
			{"run across a fence", 3*s + 5, [][2]int{{s - 2, 4}, {2*s - 1, 2}}},
			{"run starting on a fence", 2*s + 2, [][2]int{{s, 3}}},
			{"runs at 0 and n-1", 2*s + 3, [][2]int{{0, 3}, {2 * s, 3}}},
			{"all equal", 3*s + 1, [][2]int{{0, 3*s + 1}}},
			{"one entry", 1, nil},
			{"below one stride", s - 1, [][2]int{{1, 2}}},
			{"one stride", s, [][2]int{{s - 2, 2}}},
			{"long run", 4 * s, [][2]int{{s/2 + 1, 2*s + 1}}},
		}
		var forests []*Forest
		for ci, c := range cases {
			f := runsForest(width, c.n, fill, c.runs, uint64(100*width+ci), uint32(ci)<<24)
			forests = append(forests, f)
			t.Run(fmt.Sprintf("w%d/%s", width, c.name), func(t *testing.T) {
				v, err := viewOf(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, q0 := range edgeLeads(width, slices.Compact(runsColumn(c.n, fill, c.runs))) {
					for d := 0; d < 9; d++ {
						q := []uint64{q0, uint64(d % 3), uint64(d / 3)}
						for r := 1; r <= rMax; r++ {
							want := linearProbe(f, q, 0, r)
							for name, g := range map[string]*Forest{"built": f, "view": v} {
								if got := collectQuery(g, q, 1, r, nil); !slices.Equal(got, want) {
									t.Fatalf("%s: q=%v r=%d: probe %v, linear scan %v", name, q, r, got, want)
								}
							}
						}
					}
				}
			})
		}
		t.Run(fmt.Sprintf("w%d/lockstep", width), func(t *testing.T) {
			// Fences of 0, 1, s-1, s and s+1 entries; the widest columns
			// keep their values below 2^8 with longer filler runs.
			for i, fences := range []int{0, 1, s - 1, s, s + 1} {
				n := max(0, (fences-1)*s+1+i)
				forests = append(forests, runsForest(width, n, max(fill, n/100), [][2]int{{s - 1, 2}}, uint64(7*width+i), uint32(len(forests))<<24))
			}
			jobs := make([]Job, len(forests))
			var vals []uint64
			for i, f := range forests {
				if i%2 == 1 && f.Len() > 0 {
					v, err := viewOf(f)
					if err != nil {
						t.Fatal(err)
					}
					f = v
				}
				jobs[i] = Job{Forest: f, B: 1}
				vals = append(vals, f.TreeLeadingColumn(0)...)
			}
			slices.Sort(vals)
			for li, q0 := range edgeLeads(width, slices.Compact(vals)) {
				q := []uint64{q0, uint64(li % 3), uint64(li / 3 % 3)}
				for i := range jobs {
					jobs[i].R = 1 + (i+li)%rMax
				}
				if got, want := collectProbe(jobs, q, 0), jobScan(jobs, q); !slices.Equal(got, want) {
					t.Fatalf("q=%v: probe %v, per-forest linear scans %v", q, got, want)
				}
			}
		})
	}
}
