package ttl

import (
	"testing"

	"ptldb/internal/order"
	"ptldb/internal/timetable"
)

// hubRuns splits a label, sorted by (Hub, Dep), into its runs, keyed by hub.
func hubRuns(label []Tuple) map[timetable.StopID][]Tuple {
	runs := map[timetable.StopID][]Tuple{}
	for lo := 0; lo < len(label); {
		hi := lo + 1
		for hi < len(label) && label[hi].Hub == label[lo].Hub {
			hi++
		}
		runs[label[lo].Hub] = label[lo:hi]
		lo = hi
	}
	return runs
}

// TestLabelsAreMinimal: the labels Build emits are the canonical minimal
// label set under their order (DESIGN.md §3.1). No tuple ⟨h, t_d, t_a⟩ of
// L_out(v) is redundant — no hub u more important than h chains L_out(v)
// into L_in(h) (viaHub, the build's own cover check) for a journey departing
// at or after t_d and arriving by t_a — and no tuple of L_in(v) is redundant
// through L_out(h) and L_in(v) the same way. Inside a hub's run no tuple
// dominates another: departures and arrivals both ascend strictly (a run
// ascends in both, so a dominated tuple would repeat its neighbour's
// departure or arrival). It checks the Figure-1 timetable and a small
// synthetic city under the neighbor-degree and the hub-usage order.
func TestLabelsAreMinimal(t *testing.T) {
	for _, c := range []struct {
		name string
		tt   *timetable.Timetable
	}{
		{"figure1", timetable.PaperExample()},
		{"austin", synthCity(t, 0.01)},
	} {
		n := c.tt.NumStops()
		for _, o := range []struct {
			name string
			ord  order.Order
		}{
			{"neighbor-degree", order.ByNeighborDegree(c.tt)},
			{"hub-usage", order.ByHubUsage(c.tt, n/10+32, 1)},
		} {
			l := Build(c.tt, o.ord)
			outRuns, inRuns := make([]map[timetable.StopID][]Tuple, n), make([]map[timetable.StopID][]Tuple, n)
			for v := 0; v < n; v++ {
				outRuns[v], inRuns[v] = hubRuns(l.Out[v]), hubRuns(l.In[v])
			}
			// redundant reports whether a hub more important than h chains
			// first (runs out of the journey's source) into second (runs into
			// its target) for a journey no worse than x.
			redundant := func(first, second map[timetable.StopID][]Tuple, h timetable.StopID, x Tuple) bool {
				for u, run := range first {
					if l.Ranks[u] < l.Ranks[h] && second[u] != nil && viaHub(run, second[u], x.Dep, x.Arr) {
						return true
					}
				}
				return false
			}
			tuples := 0
			for v := 0; v < n; v++ {
				for _, x := range l.Out[v] {
					if redundant(outRuns[v], inRuns[x.Hub], x.Hub, x) {
						t.Errorf("%s, %s: L_out(%d) tuple %+v is redundant", c.name, o.name, v, x)
					}
				}
				for _, x := range l.In[v] {
					if redundant(outRuns[x.Hub], inRuns[v], x.Hub, x) {
						t.Errorf("%s, %s: L_in(%d) tuple %+v is redundant", c.name, o.name, v, x)
					}
				}
				for _, runs := range []map[timetable.StopID][]Tuple{outRuns[v], inRuns[v]} {
					for _, run := range runs {
						for i := 1; i < len(run); i++ {
							if run[i].Dep <= run[i-1].Dep || run[i].Arr <= run[i-1].Arr {
								t.Errorf("%s, %s: stop %d: tuples %+v and %+v of one run, one dominated", c.name, o.name, v, run[i-1], run[i])
							}
						}
						tuples += len(run)
					}
				}
			}
			if tuples != l.NumTuples() || tuples == 0 {
				t.Fatalf("%s, %s: checked %d tuples of %d", c.name, o.name, tuples, l.NumTuples())
			}
		}
	}
}
