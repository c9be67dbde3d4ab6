package bench

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// A Claim is one statement of the paper's Section 4 and the rule that judges
// it on the tables one run of the experiments printed. Where the paper's
// number depends on its hardware, the rule tests the paper's relative
// statement (a ranking, a ratio, who wins); where the claim is a count
// (dummy tuples, tuples per stop, rows per query), it tests the value.
type Claim struct {
	Paper string   // the paper's statement
	Exps  []string // the experiments whose tables the rule reads
	Rule  string   // the rule, in one line
	// Judge returns the verdict, ✅, ⚠️ or ❌ with the checks behind it, and
	// the cells it read; scale is the run's dataset scale.
	Judge func(tabs map[string]*Table, scale float64) (verdict, cells string)
}

// Claims are the paper's claims this reproduction checks, in the order of
// EXPERIMENTS.md's claim table.
var Claims = []Claim{
	{"Table 7: TTL labels are compact, 630–7,230 tuples per stop", []string{"table7"},
		"per city, tuples per stop within 2× of the paper's",
		func(tabs map[string]*Table, _ float64) (string, string) {
			r := ratios(tabs["table7"].column("", "|HL|/|V|"), tabs["table7"].column("", "paper |HL|/|V|"))
			return share(test(r, func(x float64) bool { return x >= 0.5 && x <= 2 })), "ours / paper " + span(r, "×")
		}},
	{"§3.1: dummy tuples are a small fraction (< 10 %) of all tuples", []string{"table7"},
		"per city, dummy % < 10",
		func(tabs map[string]*Table, _ float64) (string, string) {
			d := tabs["table7"].column("", "dummy %")
			return share(test(d, func(x float64) bool { return x < 10 })), "dummy % " + span(d, "")
		}},
	{"Fig. 2: on the HDD, LD is the cheapest v2v query and SD about 26 % dearer than EA", []string{"fig2"},
		"per city, LD < 0.95 × EA and SD > 1.1 × EA (a margin no run-to-run noise crosses)",
		func(tabs map[string]*Table, _ float64) (string, string) {
			t := tabs["fig2"]
			ld, sd := ratios(t.column("", "LD"), t.column("", "EA")), ratios(t.column("", "SD"), t.column("", "EA"))
			return share(append(test(ld, func(x float64) bool { return x < 0.95 }), test(sd, func(x float64) bool { return x > 1.1 })...)),
				"LD / EA " + span(ld, "×") + ", SD / EA " + span(sd, "×")
		}},
	{"Fig. 3: optimized kNN is 11–53× faster than the naive Code 2", []string{"fig3"},
		"✅ every cell ≥ 11×; ⚠️ every cell > 1× (optimized wins); ❌ otherwise",
		func(tabs map[string]*Table, _ float64) (string, string) {
			v := tabs["fig3"].column("", "k=1", "k=2", "k=4", "k=8", "k=16")
			verdict := "❌"
			if lo := slices.Min(v); lo >= 11 { // NaN, a cell that is no number, fails both
				verdict = "✅"
			} else if lo > 1 {
				verdict = "⚠️"
			}
			return verdict, "naive / optimized " + span(v, "×")
		}},
	{"Fig. 4: kNN on the HDD barely depends on k, and LD-kNN (≤ 32 ms) costs at most what EA-kNN (≤ 64 ms) does", []string{"fig4"},
		"per row, k=16 < 2 × k=1; per city, LD < 0.75 × EA at k=4 (the paper's bounds halve)",
		func(tabs map[string]*Table, _ float64) (string, string) {
			t := tabs["fig4"]
			k, dir := ratios(t.column("", "k=16"), t.column("", "k=1")), ratios(t.column("LD", "k=4"), t.column("EA", "k=4"))
			return share(append(test(k, func(x float64) bool { return x < 2 }), test(dir, func(x float64) bool { return x < 0.75 })...)),
				"k=16 / k=1 " + span(k, "×") + ", LD / EA " + span(dir, "×")
		}},
	{"Fig. 5: kNN (k = 4) gets dearer as the target density D grows", []string{"fig5"},
		"per row, D=0.1 ≥ D=0.001", growsWithD("fig5")},
	{"Fig. 6: one-to-many gets dearer as D grows, toward one-to-all at D = 0.1", []string{"fig6"},
		"per row, D=0.1 ≥ D=0.001", growsWithD("fig6")},
	{"Fig. 7: the SSD makes v2v queries 3–20× faster than the HDD", []string{"fig7"},
		"every SSD speed-up cell ≥ 3×",
		func(tabs map[string]*Table, _ float64) (string, string) {
			v := tabs["fig7"].column("", "EA vs HDD", "LD vs HDD", "SD vs HDD")
			return share(test(v, func(x float64) bool { return x >= 3 })), "HDD / SSD " + span(v, "×")
		}},
	{"Fig. 8 / §4.2.2: kNN gains nothing from the SSD", []string{"fig4", "fig8"},
		"per row, HDD (fig4) / SSD (fig8) < 2× at k=4",
		func(tabs map[string]*Table, _ float64) (string, string) {
			r := ratios(tabs["fig4"].column("", "k=4"), tabs["fig8"].column("", "k=4"))
			return share(test(r, func(x float64) bool { return x < 2 })), "HDD / SSD " + span(r, "×")
		}},
	{"§4.3: the tables of every D and kmax fit in under 12 GB at full scale", []string{"storage"},
		"bytes of every dataset / scale < 12 GB",
		func(tabs map[string]*Table, scale float64) (string, string) {
			total := 0.0
			for _, b := range tabs["storage"].column("", "bytes") {
				total += b
			}
			full := total / scale / 1e9
			return share(test([]float64{full}, func(x float64) bool { return x < 12 })), fmt.Sprintf("%.3g GB", full)
		}},
	{"§3.1: a v2v query accesses exactly two rows", nil,
		"a tier-1 test asserts it: TestV2VAccessesExactlyTwoRows (internal/core)",
		func(map[string]*Table, float64) (string, string) {
			return "✅ tier-1 test", "1 lout and 1 lin lookup, no scan"
		}},
	{"§4.1.1: inside a database, a v2v query costs a constant factor over TTL labels in memory", []string{"ablation-engine"},
		"warm PTLDB within 2× of TTL in memory, EA, LD and SD",
		func(tabs map[string]*Table, _ float64) (string, string) {
			t, cols := tabs["ablation-engine"], []string{"EA vs TTL", "LD vs TTL", "SD vs TTL"}
			warm, cold := t.column("PTLDB warm (every table resident)", cols...), t.column("PTLDB cold per query (SSD sim)", cols...)
			return share(test(warm, func(x float64) bool { return x < 2 })), "warm " + span(warm, "×") + ", cold SSD " + span(cold, "×")
		}},
}

// ClaimTable judges every claim on the tables a run printed, keyed by
// experiment id; a claim whose experiments did not all run reads "not run".
func ClaimTable(tabs map[string]*Table, scale float64) *Table {
	t := &Table{
		ID: "claims", Title: "the paper's claims, judged on the tables above",
		Columns: []string{"#", "paper", "tables", "rule", "verdict", "cells"},
		Notes:   []string{"✅ every check of the rule holds, ⚠️ at least half of them, ❌ fewer; n/m counts the checks that hold."},
	}
	for i, c := range Claims {
		verdict, cells := "not run", "-"
		if !slices.ContainsFunc(c.Exps, func(id string) bool { return tabs[id] == nil }) {
			verdict, cells = c.Judge(tabs, scale)
		}
		t.Rows = append(t.Rows, []string{strconv.Itoa(i + 1), c.Paper, strings.Join(c.Exps, ", "), c.Rule, verdict, cells})
	}
	return t
}

// growsWithD judges a density sweep: each row's D=0.1 cell is at least its
// D=0.001 cell.
func growsWithD(id string) func(map[string]*Table, float64) (string, string) {
	return func(tabs map[string]*Table, _ float64) (string, string) {
		r := ratios(tabs[id].column("", "D=0.1"), tabs[id].column("", "D=0.001"))
		return share(test(r, func(x float64) bool { return x >= 1 })), "D=0.1 / D=0.001 " + span(r, "×")
	}
}

// column returns the cells of the named columns, column after column, as
// numbers, a ratio's "x" dropped, of the rows holding a cell equal to row (""
// for every row); a cell that is no number ("-") is NaN.
func (t *Table) column(row string, names ...string) []float64 {
	var out []float64
	for _, name := range names {
		c := slices.Index(t.Columns, name)
		for _, r := range t.Rows {
			if row == "" || slices.Contains(r, row) {
				v, err := strconv.ParseFloat(strings.TrimSuffix(r[c], "x"), 64)
				if err != nil {
					v = math.NaN()
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// ratios divides a by b element by element.
func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// test applies ok to every number of vs, skipping NaN.
func test(vs []float64, ok func(float64) bool) []bool {
	var out []bool
	for _, v := range vs {
		if !math.IsNaN(v) {
			out = append(out, ok(v))
		}
	}
	return out
}

// share renders the verdict on checks: ✅ when every one holds, ⚠️ when at
// least half do, ❌ otherwise, followed by how many hold of how many.
func share(checks []bool) string {
	pass := 0
	for _, ok := range checks {
		if ok {
			pass++
		}
	}
	verdict := "❌"
	switch {
	case len(checks) == 0:
		return "no cells"
	case pass == len(checks):
		verdict = "✅"
	case 2*pass >= len(checks):
		verdict = "⚠️"
	}
	return fmt.Sprintf("%s %d/%d", verdict, pass, len(checks))
}

// span renders the range of vs, NaN skipped, with unit after each end.
func span(vs []float64, unit string) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if !math.IsNaN(v) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if lo > hi {
		return "-"
	}
	return fmt.Sprintf("%.3g%s–%.3g%s", lo, unit, hi, unit)
}
