package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("caption", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5, "extra")
	s := tb.String()
	for _, want := range []string{"caption", "name", "alpha", "2.500", "extra", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		2.5:    "2.500",
		12.345: "12.35",
		1234.5: "1234.5",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(math.NaN()); got != "NaN" {
		t.Errorf("NaN = %q", got)
	}
	if got := FormatFloat(math.Inf(1)); got != "Inf" {
		t.Errorf("Inf = %q", got)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("plain", `has "quote", comma`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"has ""quote"", comma"`) {
		t.Fatalf("quoting wrong: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("header wrong: %s", csv)
	}
}

func TestFigureChart(t *testing.T) {
	f := NewFigure("fig", "x", "y")
	f.Add("s1", []float64{1, 2, 3, 4})
	f.AddXY("s2", []float64{0, 1, 2, 3}, []float64{4, 3, 2, 1})
	chart := f.Chart(40, 8)
	for _, want := range []string{"fig", "s1", "s2", "*", "+"} {
		if !strings.Contains(chart, want) {
			t.Fatalf("missing %q in chart:\n%s", want, chart)
		}
	}
	// Degenerate inputs do not panic.
	empty := NewFigure("empty", "x", "y")
	if !strings.Contains(empty.Chart(10, 3), "no data") {
		t.Fatal("empty figure not flagged")
	}
	flat := NewFigure("flat", "x", "y")
	flat.Add("c", []float64{5, 5, 5})
	_ = flat.Chart(1, 1) // minimum sizes clamped
}

func TestFigureDataTable(t *testing.T) {
	f := NewFigure("fig", "x", "y")
	f.AddXY("s1", []float64{10, 20}, []float64{1, 2})
	f.Add("s2", []float64{3}) // shorter series
	dt := f.DataTable()
	if len(dt.Rows) != 2 {
		t.Fatalf("rows = %d", len(dt.Rows))
	}
	if dt.Rows[0][0] != "10" || dt.Rows[0][1] != "1" || dt.Rows[0][2] != "3" {
		t.Fatalf("row0 = %v", dt.Rows[0])
	}
	if dt.Rows[1][2] != "" {
		t.Fatalf("short series not padded: %v", dt.Rows[1])
	}
}

func TestWriteTo(t *testing.T) {
	tb := NewTable("c", "h")
	tb.AddRow("v")
	var sb strings.Builder
	n, err := tb.WriteTo(&sb)
	if err != nil || n == 0 || sb.Len() == 0 {
		t.Fatalf("WriteTo: %d, %v", n, err)
	}
}
