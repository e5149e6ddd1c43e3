// Package report renders experiment results as ASCII tables, simple line
// charts, and CSV. Every table and figure of the paper is regenerated
// through this package so that `cmd/memtherm` output can be compared
// side-by-side with the published artifacts.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-oriented table with a caption.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// NewTable returns a table with the given caption and column headers.
func NewTable(caption string, header ...string) *Table {
	return &Table{Caption: caption, Header: header}
}

// AddRow appends a row. Cells beyond the header width are kept; short rows
// are padded when rendering.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row where each cell is rendered with fmt.Sprint unless
// it is a float64, which is formatted with 3 significant decimals.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: 3 decimals for small magnitudes,
// fewer for large ones, and "NaN"/"Inf" passed through.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 0):
		return "Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func (t *Table) widths() []int {
	n := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.Header {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WriteTo renders the table to w.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	ws := t.widths()
	line := func(cells []string) {
		for i := 0; i < len(ws); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", ws[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		line(t.Header)
		sep := make([]string, len(ws))
		for i := range sep {
			sep[i] = strings.Repeat("-", ws[i])
		}
		line(sep)
	}
	for _, r := range t.Rows {
		line(r)
	}
	b.WriteString("\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quoting cells that need it).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is a named sequence of (x, y) points, the unit figures are built
// from. X values are optional; when nil, indices are used.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series sharing axes, matching one paper figure.
type Figure struct {
	Caption string
	XLabel  string
	YLabel  string
	Series  []Series
}

// NewFigure returns an empty figure.
func NewFigure(caption, xlabel, ylabel string) *Figure {
	return &Figure{Caption: caption, XLabel: xlabel, YLabel: ylabel}
}

// Add appends a series with implicit X indices.
func (f *Figure) Add(name string, ys []float64) {
	f.Series = append(f.Series, Series{Name: name, Y: ys})
}

// AddXY appends a series with explicit X values.
func (f *Figure) AddXY(name string, xs, ys []float64) {
	f.Series = append(f.Series, Series{Name: name, X: xs, Y: ys})
}

// Chart renders an ASCII line chart of the figure, height rows tall and
// width columns wide, with one glyph per series.
func (f *Figure) Chart(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i, y := range s.Y {
			x := float64(i)
			if s.X != nil {
				x = s.X[i]
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
		}
	}
	if math.IsInf(minY, 1) { // no data
		return f.Caption + " (no data)\n"
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '~', '&', '$'}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for i, y := range s.Y {
			x := float64(i)
			if s.X != nil {
				x = s.X[i]
			}
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = g
			}
		}
	}
	var b strings.Builder
	if f.Caption != "" {
		fmt.Fprintf(&b, "%s\n", f.Caption)
	}
	fmt.Fprintf(&b, "%s (top=%.2f bottom=%.2f)\n", f.YLabel, maxY, minY)
	for _, row := range grid {
		b.WriteString("| ")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "+-%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "  %s: %.2f .. %.2f\n", f.XLabel, minX, maxX)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// DataTable renders the figure's series as a table, one row per X value.
// Series with differing X sets are aligned by position.
func (f *Figure) DataTable() *Table {
	t := NewTable(f.Caption, append([]string{f.XLabel}, seriesNames(f.Series)...)...)
	n := 0
	for _, s := range f.Series {
		if len(s.Y) > n {
			n = len(s.Y)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(f.Series)+1)
		x := float64(i)
		if len(f.Series) > 0 && f.Series[0].X != nil && i < len(f.Series[0].X) {
			x = f.Series[0].X[i]
		}
		row = append(row, FormatFloat(x))
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, FormatFloat(s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}

func seriesNames(ss []Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}
