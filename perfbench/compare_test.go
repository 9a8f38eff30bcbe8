package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, []float64{10.02, 9.95, 10.1, 10, 9.9}, false, verdictWithin},
		{"worse by less than the bound", steady, scale(steady, 1.08), false, verdictWithin},
		{"worse by more than the bound", steady, scale(steady, 1.2), false, verdictWorse},
		{"better", steady, scale(steady, 0.5), false, verdictWithin},
		{"higher is better: drop", steady, scale(steady, 0.8), true, verdictWorse},
		{"higher is better: rise", steady, scale(steady, 1.2), true, verdictWithin},
		{"spread above the bound", steady, []float64{8, 13, 10, 7, 12}, false, verdictUnresolved},
		{"spread above the bound, every run better", []float64{10, 14, 12, 9, 13}, []float64{5, 6, 5.5, 7, 4}, false, verdictWithin},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func TestCompareReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"read_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"micro_f","unit":"ratio","better":"higher","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50s, fs []float64) string {
		path := filepath.Join(dir, name)
		for i := range p50s {
			rec := record{Workload: "read-3b", Seed: int64(i), result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"read_p50_ms": {p50s[i], "ms"}, "micro_f": {fs[i], "ratio"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		// Traced runs carry no end-to-end metrics and are skipped.
		if err := appendRecord(path, record{Workload: "read-3b", Trace: true}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.jsonl", []float64{1, 1.01, 0.99, 1, 1}, []float64{0.9, 0.9, 0.91, 0.9, 0.9})
	change := write("change.jsonl", []float64{1.5, 1.52, 1.49, 1.5, 1.5}, []float64{0.9, 0.9, 0.9, 0.91, 0.9})
	var out bytes.Buffer
	bad, err := compare(&out, bench, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Errorf("%d pairs not within, want 1 (read_p50_ms)\n%s", bad, out.String())
	}
	for _, want := range []string{"read_p50_ms", "worse (n=5/5)", "micro_f", "within (n=5/5)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	var rec record
	data, _ := os.ReadFile(parent)
	if err := json.Unmarshal(bytes.SplitN(data, []byte("\n"), 2)[0], &rec); err != nil || rec.Workload != "read-3b" || rec.Metrics["read_p50_ms"].Unit != "ms" {
		t.Errorf("record round trip: %+v, %v", rec, err)
	}
}
