package antgpu_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

var updateKernelMeters = flag.Bool("update", false,
	"rewrite testdata/kernel_meters.golden from the kernels as they are")

const kernelMetersGolden = "testdata/kernel_meters.golden"

// meterLine is one launch's golden line: its full Meter, field by field,
// and its simulated Seconds, floats in %x so every bit is pinned.
func meterLine(prefix string, r *cuda.LaunchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s Seconds=%x", prefix, r.Name, r.Seconds)
	v := reflect.ValueOf(r.Meter)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(&b, " %s=%x", v.Type().Field(i).Name, f.Float())
		default:
			fmt.Fprintf(&b, " %s=%d", v.Type().Field(i).Name, f.Int())
		}
	}
	return b.String()
}

// kernelMeterLines launches the kernels the golden pins and returns one
// line per launch. The data-parallel construction (versions 7 and 8) runs
// at every tile shape it meets: a full 256-lane tile (n = 256), a tail
// tile of 24 lanes (n = 280), one of 44 lanes that crosses a warp
// (n = 300), and a half-warp tail with 32-thread blocks (att48). Every
// other tour version, every pheromone version and the 2-opt kernel run
// once at n = 280 on a few ants, and the paper's a280 setup runs once
// block-sampled. Each case runs on both device models.
func kernelMeterLines(t *testing.T) []string {
	t.Helper()
	gen := func(n int) *tsp.Instance {
		in, err := tsp.Generate(tsp.GenSpec{Name: fmt.Sprintf("u%d", n), N: n, Type: tsp.Euc2D, Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a280 := tsp.MustLoadBenchmark("a280")
	shapes := []struct {
		name    string
		in      *tsp.Instance
		threads int
	}{
		{"n256", gen(256), 0},
		{"a280", a280, 0},
		{"n300", gen(300), 0},
		{"att48-t32", tsp.MustLoadBenchmark("att48"), 32},
	}
	const ants = 6
	p := aco.Params{Ants: ants}.WithDefaults()
	newEngine := func(dev *cuda.Device, in *tsp.Instance, threads int) *core.Engine {
		e, err := core.NewEngineWithOptions(dev, in, p, core.EngineOptions{DataBlockThreads: threads})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var lines []string
	add := func(prefix string, s *core.StageResult, err error) {
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		for _, r := range s.Kernels {
			lines = append(lines, meterLine(prefix, r))
		}
	}
	for _, newDev := range []func() *cuda.Device{cuda.TeslaC1060, cuda.TeslaM2050} {
		dev := newDev()
		for _, sh := range shapes {
			for _, v := range []core.TourVersion{core.TourDataParallel, core.TourDataParallelTexture} {
				e := newEngine(dev, sh.in, sh.threads)
				s, err := e.ConstructTours(v)
				add(fmt.Sprintf("%s/%s/tour-v%d", dev.Name, sh.name, int(v)), s, err)
				e.Free()
			}
		}
		for _, v := range core.TourVersions {
			if v.DataParallel() {
				continue
			}
			e := newEngine(dev, a280, 0)
			s, err := e.ConstructTours(v)
			add(fmt.Sprintf("%s/a280/tour-v%d", dev.Name, int(v)), s, err)
			e.Free()
		}
		for _, v := range core.PherVersions {
			e := newEngine(dev, a280, 0)
			s, err := e.ConstructTours(core.TourDataParallel)
			if err != nil {
				t.Fatal(err)
			}
			s, err = e.UpdatePheromone(v)
			add(fmt.Sprintf("%s/a280/pher-v%d", dev.Name, int(v)), s, err)
			e.Free()
		}
		e := newEngine(dev, a280, 0)
		if _, err := e.ConstructTours(core.TourDataParallel); err != nil {
			t.Fatal(err)
		}
		s, err := e.LocalSearchKernel()
		add(fmt.Sprintf("%s/a280/twoopt", dev.Name), s, err)
		e.Free()

		// The paper's a280 setup (m = n) block-sampled, as the table and
		// figure sweeps run it: the meters are extrapolated to the grid.
		e, err = core.NewEngine(dev, a280, aco.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		e.SampleBudget = 20_000_000
		s, err = e.ConstructTours(core.TourDataParallelTexture)
		add(fmt.Sprintf("%s/a280-m280-sampled/tour-v8", dev.Name), s, err)
		s, err = e.UpdatePheromone(core.PherAtomicShared)
		add(fmt.Sprintf("%s/a280-m280-sampled/pher-v1", dev.Name), s, err)
		e.Free()
	}
	return lines
}

// TestKernelMeters pins the full meters and simulated seconds of every
// kernel version against testdata/kernel_meters.golden, so a change to
// any charge, transaction count or tile shape shows as a diff. After a
// deliberate change to the cost model, regenerate the file with
//
//	go test -run TestKernelMeters -update .
func TestKernelMeters(t *testing.T) {
	got := strings.Join(kernelMeterLines(t), "\n") + "\n"
	if *updateKernelMeters {
		if err := os.WriteFile(kernelMetersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(kernelMetersGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(golden) == got {
		return
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Errorf("%d launches, golden has %d", len(have), len(want))
	}
	for i := 0; i < min(len(want), len(have)); i++ {
		if want[i] != have[i] {
			t.Errorf("launch %d differs from the golden:\n  golden %s\n  got    %s", i, want[i], have[i])
		}
	}
}
