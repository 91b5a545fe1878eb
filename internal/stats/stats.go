// Package stats provides counters and table formatting shared by the
// simulator and the experiment harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event count. Components keep
// their counters as plain struct fields, so the zero value is a counter
// at zero, a fork copies them by assignment and an increment is a field
// increment.
type Counter uint64

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Get returns the counter's value.
func (c Counter) Get() uint64 { return uint64(c) }

// Rate returns num/den as a float, zero when den is zero.
func Rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// PerKilo returns events per thousand units (e.g. MPKI).
func PerKilo(events, units uint64) float64 {
	if units == 0 {
		return 0
	}
	return 1000 * float64(events) / float64(units)
}

// Pct returns 100*num/den, zero when den is zero.
func Pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Table accumulates rows for aligned text output, mirroring the rows/series
// of a paper figure.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row where numeric cells are formatted with %.2f.
func (t *Table) AddRowf(label string, vals ...float64) {
	cells := make([]string, 0, 1+len(vals))
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.2f", v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// GeoMean returns the geometric mean of strictly positive ratios; values
// <= 0 are skipped. Used for IPC speedup aggregation, as in the paper.
func GeoMean(vals []float64) float64 {
	prod := 1.0
	n := 0
	for _, v := range vals {
		if v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
