package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at smoke-test size for two ops, traced
// and untraced, and requires every metric BENCHMARK.json names — and no
// other — printed with its unit, with no failed op or check.
func TestSmoke(t *testing.T) {
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(doc, &bf); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	schemacheck := filepath.Join(tmp, "schemacheck")
	if out, err := exec.Command("go", "build", "-o", schemacheck, "gpuchar/cmd/schemacheck").CombinedOutput(); err != nil {
		t.Fatalf("build schemacheck: %v\n%s", err, out)
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 60, trace: trace, tiny: true, maxOps: 2,
				work: tmp, schemacheck: schemacheck, schema: "../metrics_schema.json"}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			rep.complete(trace)
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if rep.attempted < 2 || rep.failed != 0 || len(rep.checkErr) != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d checks %v", name, trace, rep.attempted, rep.failed, rep.checkErr)
			}
			if !trace && rep.metrics["ok_ratio"].Value != 1 {
				t.Errorf("%s: ok_ratio %v, want 1 (fail_ratio 0)", name, rep.metrics["ok_ratio"].Value)
			}
		}
	}
}
