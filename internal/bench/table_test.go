package bench

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// TestTableRenderWithChart: a table of millisecond cells renders as its
// heading, the header and separator rows, one row per data row with every
// column padded to its widest cell, and its notes — and no chart block.
func TestTableRenderWithChart(t *testing.T) {
	tbl := &Table{
		ID:      "figX",
		Title:   "test figure",
		Columns: []string{"Graph", "EA", "LD"},
		Rows: [][]string{
			{"CityA", "1.50", "12.0"},
			{"CityB", "120", "0.90"},
		},
		Notes: []string{"a note"},
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `## figX — test figure

| Graph | EA   | LD   |
| ----- | ---- | ---- |
| CityA | 1.50 | 12.0 |
| CityB | 120  | 0.90 |

> a note

`
	if got := sb.String(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

// TestTableRenderNoChartForFlatValues: any table renders as rows and notes
// alone, no chart block, and pads a cell by its runes, so a column of
// multi-byte cells (a verdict, an en dash) stays aligned.
func TestTableRenderNoChartForFlatValues(t *testing.T) {
	tbl := &Table{
		ID: "flat", Title: "flat", Columns: []string{"a", "v"},
		Rows: [][]string{{"x", "5.00"}, {"y", "✅ 1/1"}, {"z", "1–2×"}},
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "```") || strings.Contains(out, "log scale") {
		t.Errorf("render holds a chart block:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")[2:]
	for _, r := range rows {
		if n := utf8.RuneCountInString(r); n != utf8.RuneCountInString(rows[0]) {
			t.Errorf("row %q is %d runes wide, the header %d", r, n, utf8.RuneCountInString(rows[0]))
		}
	}
}

func TestMsFormatting(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{500 * time.Microsecond, "0.500"},
		{2500 * time.Microsecond, "2.50"},
		{250 * time.Millisecond, "250"},
	}
	for _, c := range cases {
		if got := ms(c.in); got != c.want {
			t.Errorf("ms(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSpeedupFormatting(t *testing.T) {
	if got := speedup(100*time.Millisecond, 10*time.Millisecond); got != "10.0x" {
		t.Errorf("speedup = %q", got)
	}
	if got := speedup(time.Second, 0); got != "-" {
		t.Errorf("speedup by zero = %q", got)
	}
}

// TestExperimentsDocIsProgramOutput guards EXPERIMENTS.md against going
// stale: between its markers is the report of one ptldb-bench run at scale
// 0.1, 60 queries and seed 1, whose sections are every experiment, in
// ExperimentIDs order, then the claim table. An experiment added, renamed or
// removed without regenerating the block fails here.
func TestExperimentsDocIsProgramOutput(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), "<!-- begin ptldb-bench output -->\n")
	block, _, ok2 := strings.Cut(block, "<!-- end ptldb-bench output -->")
	if !ok || !ok2 {
		t.Fatal("EXPERIMENTS.md lacks the markers of the generated block")
	}
	if head, _, _ := strings.Cut(block, "\n"); head != "# PTLDB evaluation — scale 0.1, 60 queries/experiment, seed 1" {
		t.Errorf("the block's header line is %q, want the run at scale 0.1, 60 queries, seed 1", head)
	}
	var got []string
	for _, line := range strings.Split(block, "\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(line, "## "), " — "); ok && strings.HasPrefix(line, "## ") {
			got = append(got, id)
		}
	}
	if want := append(slices.Clone(ExperimentIDs), ClaimTable(nil, 1).ID); !slices.Equal(got, want) {
		t.Errorf("the block's sections are %v, want %v: regenerate it with go run ./cmd/ptldb-bench -scale 0.1 -queries 60 -seed 1", got, want)
	}
}
