package experiment

import "strings"

// The drivers' statistics toolkit: a streaming, mergeable mean (Welford's
// update) and plain-text table rendering in the style of the paper's
// Tables 3-5.

// Welford accumulates a stream of observations and exposes their running
// mean without storing the samples. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
}

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Merge combines another accumulator into w (parallel Welford).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.n, w.mean = n, w.mean+delta*float64(o.n)/float64(n)
}

// Table renders aligned plain-text tables for experiment output, in the
// visual style of the paper's result tables.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row of already-formatted cells. Short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with a title line, a header row, a separator and
// the data rows, each column padded to its widest cell.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out []byte
	if t.title != "" {
		out = append(out, t.title...)
		out = append(out, '\n')
	}
	appendRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				out = append(out, ' ', ' ')
			}
			out = append(out, c...)
			for pad := len(c); pad < widths[i]; pad++ {
				out = append(out, ' ')
			}
		}
		out = append(out, '\n')
	}
	appendRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	appendRow(sep)
	for _, row := range t.rows {
		appendRow(row)
	}
	return string(out)
}
