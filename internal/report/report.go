// Package report renders experiment output: aligned ASCII tables, CSV
// files, Markdown tables, and ASCII line charts that stand in for the
// paper's figures on a terminal.
package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats compactly.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

// AddStringRow appends a pre-formatted row.
func (t *Table) AddStringRow(cells ...string) {
	t.rows = append(t.rows, append([]string(nil), cells...))
}

func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return FormatFloat(v)
	case float32:
		return FormatFloat(float64(v))
	case string:
		return v
	default:
		return fmt.Sprintf("%v", c)
	}
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with 4 significant digits, large magnitudes in scientific
// notation.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 0):
		return "Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e7:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 1e7 || (v != 0 && math.Abs(v) < 1e-3):
		return strconv.FormatFloat(v, 'e', 3, 64)
	default:
		return strconv.FormatFloat(v, 'g', 5, 64)
	}
}

// pad64 backs writePad: padding is written by slicing a constant instead
// of materializing a fresh strings.Repeat string per cell.
const pad64 = "                                                                "

// writePad writes n spaces.
func writePad(b *strings.Builder, n int) {
	for n > len(pad64) {
		b.WriteString(pad64)
		n -= len(pad64)
	}
	if n > 0 {
		b.WriteString(pad64[:n])
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	lineWidth := 0
	for _, w := range widths {
		lineWidth += w + 2
	}
	var b strings.Builder
	b.Grow(len(t.Title) + 1 + (len(t.rows)+2)*(lineWidth+1))
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			writePad(&b, widths[i]-len(cell))
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	b.WriteString(strings.Repeat("-", lineWidth-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (RFC-4180-style quoting for cells
// containing commas or quotes).
func (t *Table) RenderCSV(w io.Writer) error {
	size := 0
	for _, h := range t.headers {
		size += len(h) + 1
	}
	var b strings.Builder
	b.Grow(size * (len(t.rows) + 1) * 2)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMarkdown writes the table as a GitHub-flavored Markdown table.
func (t *Table) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.headers)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderHistogram draws a stats.Histogram-compatible set of bucket counts
// as horizontal ASCII bars. labels[i] names bucket i (typically its
// range); counts[i] is its height. maxWidth bounds the longest bar.
func RenderHistogram(w io.Writer, title string, labels []string, counts []int64, maxWidth int) error {
	if len(labels) != len(counts) {
		return fmt.Errorf("report: %d labels for %d counts", len(labels), len(counts))
	}
	if len(counts) == 0 {
		return fmt.Errorf("report: empty histogram")
	}
	if maxWidth <= 0 {
		maxWidth = 50
	}
	var peak int64
	labelW := 0
	for i, c := range counts {
		if c > peak {
			peak = c
		}
		if len(labels[i]) > labelW {
			labelW = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, c := range counts {
		bar := 0
		if peak > 0 {
			bar = int(float64(c) / float64(peak) * float64(maxWidth))
		}
		if c > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "%*s |%s %d\n", labelW, labels[i], strings.Repeat("#", bar), c)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// HistogramLabels builds range labels for a fixed-width histogram over
// [lo, hi) with n buckets.
func HistogramLabels(lo, hi float64, n int) []string {
	out := make([]string, n)
	width := (hi - lo) / float64(n)
	for i := range out {
		out[i] = fmt.Sprintf("[%s, %s)", FormatFloat(lo+float64(i)*width), FormatFloat(lo+float64(i+1)*width))
	}
	return out
}

// Series is one named line of a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart renders multiple series as an ASCII scatter/line chart — the
// terminal stand-in for the paper's figures.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// LogY plots log10(y); LogX plots log10(x).
	LogY, LogX    bool
	Width, Height int
	series        []Series
}

// NewChart creates a chart with default 72x20 geometry.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 72, Height: 20}
}

// Add appends a series. X and Y must have equal length.
func (c *Chart) Add(s Series) error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("report: series %q has %d x and %d y", s.Name, len(s.X), len(s.Y))
	}
	c.series = append(c.series, s)
	return nil
}

// seriesMarks assigns plotting glyphs round-robin.
var seriesMarks = []byte("*o+x#@%&=~")

// Render draws the chart to w.
func (c *Chart) Render(w io.Writer) error {
	if len(c.series) == 0 {
		return fmt.Errorf("report: chart %q has no series", c.Title)
	}
	tx := func(v float64) float64 {
		if c.LogX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if c.LogY {
			return math.Log10(v)
		}
		return v
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		for i := range s.X {
			x, y := tx(s.X[i]), ty(s.Y[i])
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmin > xmax || ymin > ymax {
		return fmt.Errorf("report: chart %q has no finite points", c.Title)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// One backing array for the whole grid instead of a string conversion
	// per row.
	backing := make([]byte, c.Height*c.Width)
	for i := range backing {
		backing[i] = ' '
	}
	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = backing[i*c.Width : (i+1)*c.Width]
	}
	for si, s := range c.series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i := range s.X {
			x, y := tx(s.X[i]), ty(s.Y[i])
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			col := int(math.Round((x - xmin) / (xmax - xmin) * float64(c.Width-1)))
			row := c.Height - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(c.Height-1)))
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	b.Grow(c.Height*(c.Width+2) + len(c.Title) + 64*(len(c.series)+3))
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	yloTxt, yhiTxt := FormatFloat(ymin), FormatFloat(ymax)
	if c.LogY {
		yloTxt = "10^" + yloTxt
		yhiTxt = "10^" + yhiTxt
	}
	fmt.Fprintf(&b, "%s (top=%s, bottom=%s)\n", c.YLabel, yhiTxt, yloTxt)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("+" + strings.Repeat("-", c.Width) + "\n")
	xloTxt, xhiTxt := FormatFloat(xmin), FormatFloat(xmax)
	if c.LogX {
		xloTxt = "10^" + xloTxt
		xhiTxt = "10^" + xhiTxt
	}
	fmt.Fprintf(&b, " %s: %s .. %s\n", c.XLabel, xloTxt, xhiTxt)
	for si, s := range c.series {
		fmt.Fprintf(&b, "   %c = %s\n", seriesMarks[si%len(seriesMarks)], s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
