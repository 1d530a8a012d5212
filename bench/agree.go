package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the agree summary reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet maps workload → metric → the values of the runs in a set.
type resultSet map[string]map[string][]float64

// readResults loads result files, each the standard output of one run
// whose last line is the result object. A file's workload is its base
// name up to the first dot, as in browse.seed1.run2.json.
func readResults(files []string) (resultSet, error) {
	set := resultSet{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				last = append(last[:0], line...)
			}
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		wl, _, _ := strings.Cut(filepath.Base(f), ".")
		if set[wl] == nil {
			set[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[wl][name] = append(set[wl][name], m.Value)
		}
	}
	return set, nil
}

// runAgree prints, per workload and metric, the median and quartiles of
// each set of runs and the spread (interquartile distance over median)
// against the metric's bound. A spread wider than the bound is
// "unresolved": that set cannot tell a change of the bound's size from
// noise. With a second set after "--", it also compares the medians.
func runAgree(args []string, stdout, stderr io.Writer) int {
	setA, setB := args, []string(nil)
	for i, a := range args {
		if a == "--" {
			setA, setB = args[:i], args[i+1:]
			break
		}
	}
	if len(setA) == 0 {
		fmt.Fprintln(stderr, "usage: bench --agree A-files... [-- B-files...] (run from the repository root)")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "agree: %v\n", err)
		return 1
	}
	a, err := readResults(setA)
	if err != nil {
		fmt.Fprintf(stderr, "agree: %v\n", err)
		return 1
	}
	var b resultSet
	if len(setB) > 0 {
		if b, err = readResults(setB); err != nil {
			fmt.Fprintf(stderr, "agree: %v\n", err)
			return 1
		}
	}
	writeAgree(stdout, spec, a, b)
	return 0
}

func writeAgree(w io.Writer, spec *benchmarkSpec, a, b resultSet) {
	workloads := make([]string, 0, len(a))
	for wl := range a {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	stat := func(xs []float64) string {
		if len(xs) == 0 {
			return fmt.Sprintf("%-44s", "-")
		}
		q1, q2, q3 := quartiles(xs)
		return fmt.Sprintf("n=%-2d %10.4f [%10.4f %10.4f] %5.1f%%", len(xs), q2, q1, q3, 100*spread(xs))
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "== %s\n", wl)
		for _, m := range spec.EndToEnd {
			xa, xb := a[wl][m.Name], b[wl][m.Name]
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			status := "ok"
			if spread(xa) > m.Bound || (b != nil && spread(xb) > m.Bound) {
				status = "unresolved"
			} else if b != nil && len(xa) > 0 && len(xb) > 0 {
				if worse(median(xa), median(xb), m.Better) > m.Bound {
					status = "worse"
				}
			}
			fmt.Fprintf(w, "  %-24s A %s", m.Name, stat(xa))
			if b != nil {
				fmt.Fprintf(w, "  B %s  change %+6.1f%%", stat(xb), 100*change(median(xa), median(xb)))
			}
			fmt.Fprintf(w, "  bound %4.1f%%  %s\n", 100*m.Bound, status)
		}
		for _, m := range spec.PerLayer {
			xa, xb := a[wl][m.Name], b[wl][m.Name]
			if m.Name != "trace.overhead_pct" || (len(xa) == 0 && len(xb) == 0) {
				continue
			}
			fmt.Fprintf(w, "  %-24s A %s", m.Name, stat(xa))
			if b != nil {
				fmt.Fprintf(w, "  B %s", stat(xb))
			}
			fmt.Fprintln(w)
		}
	}
}

// change is b's relative difference from a.
func change(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a)
}

// worse is how much worse b is than a, as a share of a, in the metric's
// direction; negative when b is better.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return -change(a, b)
	}
	return change(a, b)
}
