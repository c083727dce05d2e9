// Package exp is the experiment harness: one function per table/figure of
// the paper's evaluation (§V), each returning a text table with the same
// rows/series the paper reports. cmd/expdriver runs them all and writes
// EXPERIMENTS.md; bench_test.go exposes one benchmark per figure.
package exp

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is a titled text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// WallClock holds readings of real time, which differ between two runs
	// of one build. String, Markdown and JSON leave them out, so the table
	// renders byte-identically across runs; cmd/expdriver prints them on
	// the figure's "== " header line instead. A checkpoint journals them
	// with the table, so a resumed run still shows the reading it replays.
	WallClock []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells may be fewer than headers (padded empty).
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote attaches a footnote shown under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s\n\n", t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// itoa formats an integer for table cells.
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// JSON renders the table as a machine-readable object:
// {"title": ..., "header": [...], "rows": [[...]], "notes": [...]}.
func (t *Table) JSON() ([]byte, error) {
	return json.Marshal(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.Title, t.Header, t.Rows, t.Notes})
}
