// Package stats provides the small numeric and formatting helpers shared
// by the experiment harness: geometric means for speed-up aggregation (as
// the paper reports), percentage formatting and plain-text table rendering.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of positive values; 0 if empty.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var acc float64
	for _, v := range vals {
		if v <= 0 {
			return math.NaN()
		}
		acc += math.Log(v)
	}
	return math.Exp(acc / float64(len(vals)))
}

// GeoMeanSpeedupPct aggregates per-datapoint speed-up percentages the way
// the paper does: geometric mean of the speed-up ratios, reported as a
// percentage. E.g. inputs {+10, -5} are ratios {1.10, 0.95}.
func GeoMeanSpeedupPct(pcts []float64) float64 {
	ratios := make([]float64, len(pcts))
	for i, p := range pcts {
		ratios[i] = 1 + p/100
	}
	return (GeoMean(ratios) - 1) * 100
}

// Mean returns the arithmetic mean; 0 if empty.
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

// Min and Max return the extrema; 0 if empty.
func Min(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum; 0 if empty.
func Max(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Table renders rows as a fixed-width plain-text table. The first row is
// the header.
type Table struct {
	rows [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table {
	t := &Table{}
	t.rows = append(t.rows, header)
	return t
}

// AddRow appends a row; cells beyond the header width are kept.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v unless it is a float64, which is rendered with 1 decimal.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddValues appends a row of the label cells followed by vals, each
// rendered with 1 decimal.
func (t *Table) AddValues(labels []string, vals []float64) {
	row := append([]string(nil), labels...)
	for _, v := range vals {
		row = append(row, fmt.Sprintf("%.1f", v))
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	cols := 0
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range t.rows {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := 0; i < cols; i++ {
				if i == 0 {
					b.WriteString(strings.Repeat("-", widths[i]))
				} else {
					b.WriteString("  " + strings.Repeat("-", widths[i]))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
