// Package stats provides counters and table formatting shared by the
// simulator and the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counters is a named set of monotonically increasing event counts.
//
// Values live in a dense []uint64; the name-to-index map is consulted only
// by the string API. Hot simulation loops pre-register a Counter handle at
// construction time and increment through it, paying one slice index per
// event instead of a string hash.
type Counters struct {
	idx   map[string]int
	names []string
	vals  []uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{idx: make(map[string]int)}
}

// slot returns the dense index for name, registering it on first use.
func (c *Counters) slot(name string) int {
	if i, ok := c.idx[name]; ok {
		return i
	}
	i := len(c.vals)
	c.idx[name] = i
	c.names = append(c.names, name)
	c.vals = append(c.vals, 0)
	return i
}

// Counter is a pre-registered dense handle to one counter. Handles stay
// valid as further counters are registered, and all reads through the
// owning Counters observe increments made through the handle.
type Counter struct {
	c *Counters
	i int
}

// Handle registers name (idempotently) and returns its dense handle.
func (c *Counters) Handle(name string) Counter { return Counter{c: c, i: c.slot(name)} }

// Inc increments the counter by one.
func (h Counter) Inc() { h.c.vals[h.i]++ }

// Add increments the counter by n.
func (h Counter) Add(n uint64) { h.c.vals[h.i] += n }

// Get returns the counter's value.
func (h Counter) Get() uint64 { return h.c.vals[h.i] }

// Get returns a counter's value (zero when never registered).
func (c *Counters) Get(name string) uint64 {
	if i, ok := c.idx[name]; ok {
		return c.vals[i]
	}
	return 0
}

// Names returns the sorted counter names (registered handles included).
func (c *Counters) Names() []string {
	names := make([]string, len(c.names))
	copy(names, c.names)
	sort.Strings(names)
	return names
}

// String renders all counters, one per line.
func (c *Counters) String() string {
	var b strings.Builder
	for _, k := range c.Names() {
		fmt.Fprintf(&b, "%-40s %12d\n", k, c.vals[c.idx[k]])
	}
	return b.String()
}

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

// CopyFrom sets each counter registered in w to w's value, registering in c
// the names it lacks; c's other counters keep their values. w is only read.
func (c *Counters) CopyFrom(w *Counters) {
	for i, name := range w.names {
		j, ok := c.idx[name]
		if !ok {
			j = c.slot(name)
		}
		c.vals[j] = w.vals[i]
	}
}

// Snapshot returns all counter values keyed by name (a detached copy).
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.names))
	for i, name := range c.names {
		out[name] = c.vals[i]
	}
	return out
}
