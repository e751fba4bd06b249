package bench

import (
	"fmt"
	"time"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/cuda"
)

// QualityTable checks the paper's side remark that the GPU implementations'
// solution quality is "similar to those obtained by the sequential code":
// it runs the CPU Ant System, the GPU Ant System (data-parallel and NN-list
// construction), and the ACS/MMAS extensions for the same iteration budget
// and reports each best tour as a ratio to the greedy nearest-neighbour
// tour (lower is better; < 1 beats greedy). Every row is a facade cell,
// run through antgpu.Solve.
func QualityTable(dev *cuda.Device, cfg Config, iterations int) (*Table, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	if iterations <= 0 {
		iterations = 30
	}
	instances, err := loadAll(cfg.Instances)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     fmt.Sprintf("Solution quality after %d iterations, %s", iterations, dev.Name),
		Unit:      "best tour / greedy NN tour (lower is better)",
		Instances: cfg.Instances,
	}

	// Each row is one facade cell on dev; Params seed the ACS and MMAS
	// rows too, whose other parameters stay at their defaults.
	gpu := func(alg antgpu.Algorithm, tv antgpu.TourVersion, ls bool) antgpu.SolveOptions {
		return antgpu.SolveOptions{Backend: antgpu.BackendGPU, Device: dev, Algorithm: alg,
			Tour: tv, LocalSearch: ls}
	}
	configs := []struct {
		name string
		opts antgpu.SolveOptions
	}{
		{"AS, sequential CPU", antgpu.SolveOptions{Variant: aco.NNListConstruction}},
		{"AS, GPU data-parallel (v8)", gpu(antgpu.AlgorithmAS, antgpu.TourDataParallelTexture, false)},
		{"AS, GPU NN-list (v6)", gpu(antgpu.AlgorithmAS, antgpu.TourNNSharedTexture, false)},
		{"AS + 2-opt, GPU", gpu(antgpu.AlgorithmAS, antgpu.TourNNList, true)},
		{"EAS, GPU", gpu(antgpu.AlgorithmEAS, 0, false)},
		{"ASrank, GPU", gpu(antgpu.AlgorithmRank, 0, false)},
		{"ACS, GPU", gpu(antgpu.AlgorithmACS, 0, false)},
		{"MMAS, GPU", gpu(antgpu.AlgorithmMMAS, 0, false)},
	}

	greedy := make([]float64, len(instances))
	for i, in := range instances {
		greedy[i] = float64(in.TourLength(in.NearestNeighbourTour(0)))
	}

	for _, c := range configs {
		vals := make([]float64, len(instances))
		for i, in := range instances {
			opts := c.opts
			opts.Params, opts.Iterations = cfg.Params, iterations
			res, err := antgpu.Solve(in, opts)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.name, in.Name, err)
			}
			vals[i] = float64(res.BestLen) / greedy[i]
		}
		t.AddRow(c.name, vals)
	}
	t.HostSeconds = time.Since(start).Seconds()
	return t, nil
}
