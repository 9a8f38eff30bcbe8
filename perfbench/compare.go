package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one result line as -out appends it: the result plus the
// workload and seed that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of a comparison.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges the change's runs b against the parent's runs a for one
// metric. It is "unresolved" when either side's spread (interquartile
// range over median) exceeds bound, unless every run of the change is
// better than every run of the parent; "worse" when the change's median
// is worse than the parent's by more than bound; "within" otherwise.
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	if ma == 0 || mb == 0 {
		return verdictUnresolved
	}
	sign := 1.0
	if higherIsBetter {
		sign = -1
	}
	if max((qa3-qa1)/ma, (qb3-qb1)/mb) > bound {
		if allBetter(a, b, sign) {
			return verdictWithin
		}
		return verdictUnresolved
	}
	if sign*(mb-ma)/ma > bound {
		return verdictWorse
	}
	return verdictWithin
}

// allBetter reports whether every value of b beats every value of a;
// sign is 1 when lower is better, -1 when higher is.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints, for every workload and end-to-end metric, both sides'
// median and quartiles and the verdict against the BENCHMARK.json bound.
// It returns how many pairs were not "within".
func compare(w io.Writer, benchPath, parentPath, changePath string) (int, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return 0, fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return 0, err
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, fmt.Errorf("no workload has untraced runs in both %s and %s", parentPath, changePath)
	}
	bad := 0
	fmt.Fprintf(w, "%-18s %-14s %30s %30s %8s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			a, b := values(parent[wl], m.Name), values(change[wl], m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "higher", m.Bound)
			if v != verdictWithin {
				bad++
			}
			qa1, ma, qa3 := quartiles(a)
			qb1, mb, qb3 := quartiles(b)
			fmt.Fprintf(w, "%-18s %-14s %12.4g [%7.4g, %7.4g] %12.4g [%7.4g, %7.4g] %+7.1f%% %6.2f  %s (n=%d/%d)\n",
				wl, m.Name, ma, qa1, qa3, mb, qb1, qb3, 100*ratio(mb-ma, ma), m.Bound, v, len(a), len(b))
		}
	}
	return bad, nil
}

// readRecords loads a JSON-lines result file and groups its untraced
// records by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
