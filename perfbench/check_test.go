package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestDeriveMatchesComputeDerived(t *testing.T) {
	inp, err := generate(3, "derive", 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, f32 := range []bool{false, true} {
		got, err := derive(newTracer(), 0, 0, inp.in, 30, f32)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inp.in.ComputeDerived(30)
		if err != nil {
			t.Fatal(err)
		}
		if !f32 {
			want.DistF32 = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("derive(f32=%v) differs from ComputeDerived", f32)
		}
	}
}

func TestCheckRepeats(t *testing.T) {
	recs := []record{
		{op: 0, key: "op-0", bestLen: 100, simSec: 0.5},
		{op: 1, key: "op-1", bestLen: 90},
		{op: 0, key: "op-0", bestLen: 100, simSec: 0.5, counts: map[string]float64{"cuda.global_tx": 7}},
		{op: 0, key: "op-0", bestLen: 100, simSec: 0.5, counts: map[string]float64{"cuda.global_tx": 8}},
		{op: 1, key: "op-1", bestLen: 91},
	}
	checkRepeats(ptrs(recs))
	for i, want := range []bool{false, false, false, true, true} {
		if recs[i].failed != want {
			t.Errorf("record %d failed = %v, want %v (%s)", i, recs[i].failed, want, recs[i].err)
		}
	}
}

func TestServiceMixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service")
	}
	for _, w := range []string{"service-mix", "service-miss"} {
		if code := run([]string{"--workload", w, "--seconds", "0.3", "--out", t.TempDir()}); code != 0 {
			t.Fatalf("%s: exit code %d", w, code)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the declared workloads and metrics
// in step with what the command runs and emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, gatedWorkloads) {
		t.Errorf("declared workloads %v, the command runs %v by default", names, gatedWorkloads)
	}
	var got, want []string
	units := make(map[string]string)
	for _, m := range endToEnd(spec{Clients: 1}, nil, nil, 0) {
		units[m.Name] = m.Unit
	}
	got = nil
	for _, m := range b.EndToEnd {
		got = append(got, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s declared in %s, emitted in %s", m.Name, m.Unit, units[m.Name])
		}
	}
	if !reflect.DeepEqual(got, contractEndToEnd) {
		t.Errorf("end_to_end %v, summary carries %v", got, contractEndToEnd)
	}
	got = nil
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range layerMetrics {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, traced runs emit %v", got, want)
	}
}
