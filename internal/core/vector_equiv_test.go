package core_test

import (
	"fmt"
	"math"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// equivOut captures everything the scalar/vector comparison checks: the
// Meter of every kernel launched, and the raw bits of every externally
// visible buffer after the full sequence.
type equivOut struct {
	names  []string
	meters []cuda.Meter
	bufs   []uint32
}

// runVectorEquivSequence drives every ported kernel once — choice, random
// fill, data-parallel construction with and without texture, all five
// pheromone versions, and (when unsampled) the 2-opt local search — and
// snapshots meters and buffers. dataThreads is the data-parallel
// construction's block size on this 48-city instance: 32 forces multiple
// tiles (and ragged tail warps); 128 is one tile over four warps, so its
// max-reduction runs the cross-warp tree levels (s >= 32) paper-size
// instances run.
func runVectorEquivSequence(t *testing.T, dev *cuda.Device, vector, serial bool, budget int64, dataThreads int) equivOut {
	t.Helper()
	in := tsp.MustLoadBenchmark("att48")
	e, err := core.NewEngineWithOptions(dev, in, aco.DefaultParams(), core.EngineOptions{DataBlockThreads: dataThreads})
	if err != nil {
		t.Fatal(err)
	}
	e.Vector = vector
	e.ForceSerial = serial
	e.SampleBudget = budget

	var out equivOut
	add := func(name string, ks []*cuda.LaunchResult, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range ks {
			out.names = append(out.names, fmt.Sprintf("%s/%s", name, k.Name))
			out.meters = append(out.meters, k.Meter)
		}
	}

	r, err := e.ChoiceKernel()
	add("choice", []*cuda.LaunchResult{r}, err)
	r, err = e.FillRandoms()
	add("rngfill", []*cuda.LaunchResult{r}, err)
	for _, tv := range []core.TourVersion{core.TourDataParallel, core.TourDataParallelTexture} {
		s, err := e.ConstructTours(tv)
		var ks []*cuda.LaunchResult
		if s != nil {
			ks = s.Kernels
		}
		add(tv.String(), ks, err)
	}
	for _, pv := range core.PherVersions {
		s, err := e.UpdatePheromone(pv)
		var ks []*cuda.LaunchResult
		if s != nil {
			ks = s.Kernels
		}
		add(pv.String(), ks, err)
	}
	if budget == 0 {
		s, err := e.LocalSearchKernel()
		var ks []*cuda.LaunchResult
		if s != nil {
			ks = s.Kernels
		}
		add("twoopt", ks, err)
	}

	for _, v := range e.Pheromone() {
		out.bufs = append(out.bufs, math.Float32bits(v))
	}
	for _, v := range e.ChoiceData() {
		out.bufs = append(out.bufs, math.Float32bits(v))
	}
	for _, v := range e.Lengths() {
		out.bufs = append(out.bufs, math.Float32bits(v))
	}
	for k := 0; k < e.Ants(); k++ {
		for _, c := range e.Tour(k) {
			out.bufs = append(out.bufs, uint32(c))
		}
	}
	return out
}

// TestVectorScalarEquivalence sweeps every ported kernel across both device
// models and the serial, parallel and block-sampled execution modes,
// asserting that the warp-vector fast path and the scalar reference path
// produce identical Meter structs and byte-identical buffers, with the
// data-parallel construction on one-warp and on multi-warp blocks.
func TestVectorScalarEquivalence(t *testing.T) {
	devs := map[string]func() *cuda.Device{
		"C1060": cuda.TeslaC1060,
		"M2050": cuda.TeslaM2050,
	}
	modes := []struct {
		name   string
		serial bool
		budget int64
	}{
		{"serial", true, 0},
		{"parallel", false, 0},
		{"sampled", true, 20000}, // small budget forces SampleStride > 1
	}
	for devName, newDev := range devs {
		for _, mode := range modes {
			t.Run(devName+"/"+mode.name, func(t *testing.T) {
				for _, threads := range []int{32, 128} {
					t.Run(fmt.Sprintf("%dthreads", threads), func(t *testing.T) {
						s := runVectorEquivSequence(t, newDev(), false, mode.serial, mode.budget, threads)
						v := runVectorEquivSequence(t, newDev(), true, mode.serial, mode.budget, threads)
						assertEquivOut(t, s, v)
					})
				}
			})
		}
	}
}

// assertEquivOut asserts the scalar run s and the vector run v launched the
// same kernels with == meters and left the same buffer words.
func assertEquivOut(t *testing.T, s, v equivOut) {
	t.Helper()
	if len(s.meters) != len(v.meters) {
		t.Fatalf("kernel counts differ: scalar %d, vector %d", len(s.meters), len(v.meters))
	}
	for i := range s.meters {
		if s.meters[i] != v.meters[i] {
			t.Errorf("%s: meters differ\nscalar: %+v\nvector: %+v",
				s.names[i], s.meters[i], v.meters[i])
		}
	}
	if len(s.bufs) != len(v.bufs) {
		t.Fatalf("buffer dumps differ in length: %d vs %d", len(s.bufs), len(v.bufs))
	}
	diffs := 0
	for i := range s.bufs {
		if s.bufs[i] != v.bufs[i] {
			if diffs == 0 {
				t.Errorf("buffers differ first at word %d: %#x vs %#x", i, s.bufs[i], v.bufs[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%d differing buffer words in total", diffs)
	}
}
