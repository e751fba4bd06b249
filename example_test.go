package antgpu_test

import (
	"context"
	"fmt"

	"antgpu"
)

// The quickest way to solve a TSP instance with the Ant System.
func ExampleSolve() {
	in, _ := antgpu.LoadBenchmark("att48")
	res, _ := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 10})
	fmt.Println(in.ValidTour(res.BestTour) == nil)
	fmt.Println(len(res.BestTour) == in.N())
	// Output:
	// true
	// true
}

// Running the paper's GPU design on the simulated Tesla M2050. The
// simulated time is deterministic: the same seed always reports the same
// milliseconds.
func ExampleSolve_gpu() {
	in, _ := antgpu.LoadBenchmark("att48")
	opts := antgpu.SolveOptions{
		Iterations: 5,
		Backend:    antgpu.BackendGPU,
		Device:     antgpu.TeslaM2050(),
		Tour:       antgpu.TourDataParallelTexture, // Table II version 8
		Pher:       antgpu.PherAtomicShared,        // Table III version 1
	}
	a, _ := antgpu.Solve(in, opts)
	b, _ := antgpu.Solve(in, opts)
	fmt.Println(a.BestLen == b.BestLen)
	fmt.Println(a.SimulatedSeconds == b.SimulatedSeconds && a.SimulatedSeconds > 0)
	// Output:
	// true
	// true
}

// The Ant Colony System variant (the paper's stated future work) with ten
// ants instead of one per city.
func ExampleSolve_acs() {
	in, _ := antgpu.LoadBenchmark("att48")
	res, _ := antgpu.Solve(in, antgpu.SolveOptions{
		Algorithm:  antgpu.AlgorithmACS,
		Iterations: 10,
		Backend:    antgpu.BackendGPU,
	})
	greedy := in.TourLength(in.NearestNeighbourTour(0))
	fmt.Println(res.BestLen < greedy) // ACS beats the greedy tour quickly
	// Output:
	// true
}

// Solving many independent requests concurrently. The requests share one
// device model and one instance — every solve runs on a private clone, the
// repeated instance's derived data is computed once and shared, and each
// result is byte-identical to what a sequential Solve would return.
func ExampleSolveBatch() {
	in, _ := antgpu.LoadBenchmark("att48")
	dev := antgpu.TeslaM2050()
	reqs := make([]antgpu.SolveRequest, 4)
	for i := range reqs {
		reqs[i] = antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{
			Iterations: 5,
			Backend:    antgpu.BackendGPU,
			Device:     dev,
			Params:     antgpu.Params{Seed: uint64(i + 1)},
		}}
	}
	rep, _ := antgpu.SolveBatch(context.Background(), reqs, antgpu.PoolOptions{Workers: 2})
	fmt.Println(rep.Errs() == 0 && len(rep.Results) == 4)
	solo, _ := antgpu.Solve(in, reqs[2].Options)
	fmt.Println(rep.Results[2].Result.BestLen == solo.BestLen)
	fmt.Println(rep.CacheHits >= 3) // derived data computed once, shared 3 times
	// Output:
	// true
	// true
	// true
}

// A Pool keeps its derived-data cache across batches, so a service solving
// request streams pays each instance's Θ(n²) setup once.
func ExampleNewPool() {
	in, _ := antgpu.LoadBenchmark("att48")
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 2})
	req := []antgpu.SolveRequest{{Instance: in, Options: antgpu.SolveOptions{Iterations: 3}}}
	pool.SolveBatch(context.Background(), req)
	pool.SolveBatch(context.Background(), req)
	hits, misses := pool.CacheStats()
	fmt.Println(hits, misses)
	// Output:
	// 1 1
}

// Benchmarks lists the paper's TSPLIB instance set.
func ExampleBenchmarks() {
	for _, name := range antgpu.Benchmarks()[:3] {
		fmt.Println(name)
	}
	// Output:
	// att48
	// kroC100
	// a280
}
