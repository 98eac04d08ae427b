package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runRepeat runs the workload n times, one process each (run i with seed
// + i*seedStep), and prints per metric the median, the quartiles as
// Python's statistics.quantiles(values, n=4) gives them, their distance as
// a share of the median — the spread the driver holds against the metric's
// bound — and max-min as a share of the median.
func runRepeat(stdout io.Writer, o options, n int, seedStep int64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	inOrder := make(map[string][]float64) // metric -> its value in each run
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed + int64(i)*seedStep),
			"-seconds", fmt.Sprint(o.seconds), "-golden", o.golden}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d: %v\n%s", i+1, err, out)
			return 1
		}
		var last string
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			last = sc.Text()
		}
		var res jsonResult
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d printed no result: %v\n", i+1, err)
			return 1
		}
		for name, m := range res.Metrics {
			inOrder[name] = append(inOrder[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stdout, "run %d/%d: correct=%v attempted=%d failed=%d\n", i+1, n, res.Correct, res.Attempted, res.Failed)
	}
	names := make([]string, 0, len(inOrder))
	for name := range inOrder {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-44s %-6s %12s %12s %12s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med")
	for _, name := range names {
		xs := append([]float64(nil), inOrder[name]...)
		sort.Float64s(xs)
		med, q1, q3 := median(xs), xs[0], xs[len(xs)-1]
		if len(xs) >= 2 {
			q := quartiles(xs)
			q1, q3 = q[0], q[2]
		}
		share := func(d float64) string {
			if med == 0 {
				return strings.Repeat(" ", 8) + "-"
			}
			return fmt.Sprintf("%9.4f", d/med)
		}
		fmt.Fprintf(stdout, "%-44s %-6s %12.6g %12.6g %12.6g %s %s\n", name, units[name], med, q1, q3,
			share(q3-q1), share(xs[len(xs)-1]-xs[0]))
	}
	// Every run made, in run order.
	for _, name := range names {
		fmt.Fprintf(stdout, "%s:", name)
		for _, v := range inOrder[name] {
			fmt.Fprintf(stdout, " %.6g", v)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) on sorted xs of length >= 2.
func quartiles(xs []float64) [3]float64 {
	var out [3]float64
	m := len(xs) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(xs)-1))
		delta := float64(i*m - j*4)
		out[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return out
}
