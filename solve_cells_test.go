package antgpu_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"antgpu"
	"antgpu/internal/aco"
)

// solveCell is one backend × algorithm × setting cell of the facade.
type solveCell struct {
	backend   antgpu.Backend
	algorithm antgpu.Algorithm
	ls        bool // SolveOptions.LocalSearch
	recovery  bool // SolveOptions.Recovery set (fault-tolerant runtime)
}

func (c solveCell) String() string {
	s := c.backend.String() + "/" + c.algorithm.String()
	if c.ls {
		s += "+ls"
	}
	if c.recovery {
		s += "+recovery"
	}
	return s
}

func (c solveCell) options() antgpu.SolveOptions {
	opts := antgpu.SolveOptions{
		Backend:     c.backend,
		Algorithm:   c.algorithm,
		LocalSearch: c.ls,
		Iterations:  solveCellIters,
		Params:      antgpu.Params{Seed: 1},
	}
	if c.recovery {
		opts.Recovery = &antgpu.RecoveryOptions{}
	}
	return opts
}

const solveCellIters = 3

// supportedCells is every cell SolveContext implements.
var supportedCells = []solveCell{
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmAS},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmAS, ls: true},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmACS},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmMMAS},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmEAS},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmRank},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmAS},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmAS, ls: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmAS, recovery: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmACS},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmMMAS},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmEAS},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmRank},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmAS},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmAS, ls: true},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmACS},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmMMAS},
}

// unsupportedCells must fail instead of running with a setting dropped.
var unsupportedCells = []solveCell{
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmEAS},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmRank},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmACS, ls: true},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmMMAS, ls: true},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmEAS, ls: true},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmRank, ls: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmACS, ls: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmMMAS, ls: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmEAS, ls: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmRank, ls: true},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmACS, ls: true},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmMMAS, ls: true},
	{backend: antgpu.BackendCPU, algorithm: antgpu.AlgorithmAS, recovery: true},
	{backend: antgpu.BackendTensor, algorithm: antgpu.AlgorithmAS, recovery: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmAS, ls: true, recovery: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.AlgorithmACS, recovery: true},
	{backend: antgpu.BackendGPU, algorithm: antgpu.Algorithm(9)},
	{backend: antgpu.Backend(9), algorithm: antgpu.AlgorithmAS},
}

// solveCellLine is a cell's golden line: best length, an FNV-64a hash of
// the best tour and — on the CPU and GPU backends, whose time is modelled
// and therefore deterministic — the bits of SimulatedSeconds. The tensor
// backend reports host wall seconds, which no golden can pin.
func solveCellLine(c solveCell, res *antgpu.Result) string {
	h := fnv.New64a()
	var b [4]byte
	for _, city := range res.BestTour {
		binary.LittleEndian.PutUint32(b[:], uint32(city))
		h.Write(b[:])
	}
	sim := "-"
	if c.backend != antgpu.BackendTensor {
		sim = fmt.Sprintf("%016x", math.Float64bits(res.SimulatedSeconds))
	}
	return fmt.Sprintf("%s best=%d tour=%016x sim=%s", c, res.BestLen, h.Sum64(), sim)
}

// sameResult compares everything a cell's golden line pins.
func sameResult(c solveCell, a, b *antgpu.Result) bool {
	return solveCellLine(c, a) == solveCellLine(c, b) && reflect.DeepEqual(a.BestTour, b.BestTour)
}

// TestSolveCells pins every supported facade cell on att48 (3 iterations,
// seed 1) against testdata/solve_cells.golden, and checks per cell that
// the OnIteration feed neither perturbs the result nor drops or reorders
// events, that a batch solve (shared derived-data cache) returns the same
// result, and that every unsupported cell is refused. CI runs it under
// -race.
func TestSolveCells(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(supportedCells))
	results := make([]*antgpu.Result, len(supportedCells))
	for i, c := range supportedCells {
		res, err := antgpu.Solve(in, c.options())
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := in.ValidTour(res.BestTour); err != nil {
			t.Fatalf("%v: invalid best tour: %v", c, err)
		}
		results[i], lines[i] = res, solveCellLine(c, res)

		var events []antgpu.IterationEvent
		opts := c.options()
		opts.OnIteration = func(ev antgpu.IterationEvent) { events = append(events, ev) }
		fed, err := antgpu.Solve(in, opts)
		if err != nil {
			t.Fatalf("%v with OnIteration: %v", c, err)
		}
		if !sameResult(c, res, fed) {
			t.Errorf("%v: OnIteration changed the result:\n  off %s\n  on  %s",
				c, lines[i], solveCellLine(c, fed))
		}
		if len(events) != solveCellIters {
			t.Errorf("%v: %d OnIteration events, want %d", c, len(events), solveCellIters)
		}
		for k, ev := range events {
			if ev.Iteration != k+1 {
				t.Errorf("%v: event %d reports iteration %d", c, k, ev.Iteration)
			}
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	golden, err := os.ReadFile("testdata/solve_cells.golden")
	if err != nil {
		t.Fatalf("%v; the cells currently produce:\n%s", err, got)
	}
	if string(golden) != got {
		t.Errorf("cells differ from testdata/solve_cells.golden:\n--- golden\n%s--- got\n%s", golden, got)
	}

	reqs := make([]antgpu.SolveRequest, len(supportedCells))
	for i, c := range supportedCells {
		reqs[i] = antgpu.SolveRequest{Instance: in, Options: c.options()}
	}
	rep, err := antgpu.SolveBatch(context.Background(), reqs, antgpu.PoolOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range rep.Results {
		c := supportedCells[i]
		if it.Err != nil {
			t.Errorf("%v in a batch: %v", c, it.Err)
		} else if !sameResult(c, results[i], it.Result) {
			t.Errorf("%v: cached batch result differs:\n  solo  %s\n  batch %s",
				c, lines[i], solveCellLine(c, it.Result))
		}
	}

	for _, c := range unsupportedCells {
		opts := c.options()
		if err := opts.Validate(); err == nil {
			t.Errorf("%v: Validate accepted an unsupported cell", c)
		}
		if _, err := antgpu.Solve(in, opts); err == nil {
			t.Errorf("%v: unsupported cell ran instead of failing", c)
		}
	}
}

// TestCPUSimulatedSecondsMetered: the CPU backend's SimulatedSeconds is the
// modelled time of the iterations only — for every algorithm it equals
// DefaultCPU().Seconds of a colony driven directly after ResetMeters, so
// the constructor's choice-information pass is never charged.
func TestCPUSimulatedSecondsMetered(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	const seed, iters = 1, solveCellIters
	p := antgpu.Params{Seed: seed}.WithDefaults()
	v := aco.FullProbabilistic // the SolveOptions.Variant zero value
	direct := map[antgpu.Algorithm]func() (*aco.Colony, func(), error){
		antgpu.AlgorithmAS: func() (*aco.Colony, func(), error) {
			c, err := aco.New(in, p)
			return c, func() { c.Iterate(v) }, err
		},
		antgpu.AlgorithmACS: func() (*aco.Colony, func(), error) {
			a, err := aco.NewACSColony(in, aco.ACSParams{}.WithDefaults(seed))
			if err != nil {
				return nil, nil, err
			}
			return a.Colony, a.Iterate, nil
		},
		antgpu.AlgorithmMMAS: func() (*aco.Colony, func(), error) {
			m, err := aco.NewMMASColony(in, aco.MMASParams{}.WithDefaults(seed))
			if err != nil {
				return nil, nil, err
			}
			return m.Colony, func() { m.Iterate(v) }, nil
		},
		antgpu.AlgorithmEAS: func() (*aco.Colony, func(), error) {
			e, err := aco.NewEASColony(in, p, 0)
			if err != nil {
				return nil, nil, err
			}
			return e.Colony, func() { e.Iterate(v) }, nil
		},
		antgpu.AlgorithmRank: func() (*aco.Colony, func(), error) {
			r, err := aco.NewRankColony(in, p, 0)
			if err != nil {
				return nil, nil, err
			}
			return r.Colony, func() { r.Iterate(v) }, nil
		},
	}
	for alg, build := range direct {
		c, step, err := build()
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		c.ResetMeters()
		for i := 0; i < iters; i++ {
			step()
		}
		total := c.ConstructMeter
		total.Add(&c.PheromoneMeter)
		total.Add(&c.ChoiceMeter)
		want := aco.DefaultCPU().Seconds(&total)

		res, err := antgpu.Solve(in, antgpu.SolveOptions{
			Algorithm: alg, Iterations: iters, Params: antgpu.Params{Seed: seed},
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.SimulatedSeconds != want {
			t.Errorf("%v: facade reports %.9f s, the metered iterations take %.9f s",
				alg, res.SimulatedSeconds, want)
		}
	}
}
