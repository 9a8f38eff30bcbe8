package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// declared is the metric lists of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// toy shrinks a workload so all four run, untraced and traced, in a
// few seconds.
func toy(spec workloadSpec) workloadSpec {
	spec.Buildings, spec.RecordsPerFloor = 2, 20
	if spec.Groups > 0 {
		spec.Buildings = 4 // two per group, so building i+1 is always remote
	}
	spec.Rate = 400
	spec.MinMicroF = 0.5
	return spec
}

func TestSmokeEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload end to end")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf declared
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(layerMetrics) != len(bf.PerLayer) {
		t.Errorf("%d per-layer predictions for %d declared per-layer metrics", len(layerMetrics), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		if _, ok := layerMetrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s names no end-to-end metric and workload it should move", m.Name)
		}
	}
	ctx := context.Background()
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seconds: 1, trace: trace, stateDir: t.TempDir(), tail: 1, log: io.Discard}
			o, err := runWorkload(ctx, toy(spec), 1, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.Name, trace, err)
			}
			if len(o.problems) > 0 || o.failed > 0 || o.attempted == 0 {
				t.Errorf("%s trace=%v: %d/%d failed, problems %v", spec.Name, trace, o.failed, o.attempted, o.problems)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(o.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", spec.Name, trace, len(o.metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %s", spec.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				continue
			}
			hops := 1.0
			positive := []string{"server.transport_ms.p50", "server.self_ms.p50", "lifecycle.classify_ms.p50", "lifecycle.absorb_ms.p50"}
			if spec.Groups > 0 {
				hops = float64(spec.Groups)
				positive = append(positive, "fleet.router_self_ms.p50")
			}
			if got := o.metrics["fleet.hops_per_read"].Value; got != hops {
				t.Errorf("%s: fleet.hops_per_read = %v, want %v", spec.Name, got, hops)
			}
			for _, name := range positive {
				if v := o.metrics[name].Value; v <= 0 {
					t.Errorf("%s: %s = %v, want a positive span time", spec.Name, name, v)
				}
			}
		}
	}

	// The correctness check runs: a floor no model reaches fails the run.
	spec := toy(workloads[0])
	spec.MinMicroF = 1.01
	o, err := runWorkload(ctx, spec, 1, runConfig{seconds: 0.5, stateDir: t.TempDir(), tail: 1, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) == 0 {
		t.Error("a micro-F floor of 1.01 passed")
	}
}
