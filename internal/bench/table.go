package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // experiment id, e.g. "fig2"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render pretty-prints the table.
func (t *Table) Render(w io.Writer) error {
	// Widths count runes, as the padding of %-*s does.
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var b strings.Builder
		b.WriteString("|")
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], cell)
		}
		b.WriteString("\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	var sep []string
	for _, width := range widths {
		sep = append(sep, strings.Repeat("-", width))
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ms renders a duration in milliseconds with adaptive precision.
func ms(d time.Duration) string {
	v := float64(d) / float64(time.Millisecond)
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// speedup renders a ratio like "12.3x".
func speedup(slow, fast time.Duration) string {
	if fast <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(slow)/float64(fast))
}
