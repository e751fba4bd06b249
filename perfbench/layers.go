package main

import (
	"bytes"
	"fmt"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tensor"
	"antgpu/internal/tsp"
)

// The traced ops make, one public call at a time, the calls the facade
// makes inside antgpu.SolveContext, and wrap each in a span. Their results
// must equal the untraced ops' results, which checkRepeats verifies.

// parse is tsp.Parse plus the Validate the facade applies before solving.
func parse(tr *tracer, op, parent int, data []byte) (*tsp.Instance, error) {
	defer tr.end(tr.begin(op, parent, "tsp.parse"))
	in, err := tsp.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return in, in.Validate()
}

// derive computes the data an uncached engine derives from the instance
// before its first iteration. For the simulated device that is
// tsp.Instance.ComputeDerived, one span. The tensor engine uses no float32
// matrix: it computes only the NN lists and the greedy tour length C^nn,
// and so does derive, one span each.
func derive(tr *tracer, op, parent int, in *tsp.Instance, nn int, f32 bool) (*tsp.Derived, error) {
	id := tr.begin(op, parent, "tsp.derived")
	defer tr.end(id)
	if f32 {
		return in.ComputeDerived(nn)
	}
	nn = in.EffectiveNN(nn)
	d := &tsp.Derived{N: in.N(), NN: nn}
	tr.do(op, id, "tsp.nnlist", func() { d.List = in.NNList(nn) })
	tr.do(op, id, "tsp.nntour", func() { d.CNN = in.TourLength(in.NearestNeighbourTour(0)) })
	return d, nil
}

// tensorSolve is the facade's tensor AS path on the given derived data:
// build the engine, then construct and update once per iteration.
func tensorSolve(tr *tracer, op, parent int, in *tsp.Instance, p antgpu.Params, d *tsp.Derived,
	v aco.Variant, iters int) ([]int32, int64, map[string]float64, error) {
	var e *tensor.Engine
	var err error
	tr.do(op, parent, "tensor.build", func() { e, err = tensor.NewWithDerived(in, p, d) })
	if err != nil {
		return nil, 0, nil, fmt.Errorf("tensor engine: %w", err)
	}
	defer e.Close()
	for i := 0; i < iters; i++ {
		tr.do(op, parent, "tensor.construct", func() { e.ConstructTours(v) })
		tr.do(op, parent, "tensor.update", e.UpdatePheromone)
	}
	return e.BestTour, e.BestLen, tensorCounts(in.N(), e.Ants(), d.NN, iters), nil
}

// tensorCounts are the tensor layer's work counts for one solve: the
// construction steps, and the bytes the AS pheromone stage touches as
// computed from its loops (not measured): per ant and tour edge a
// read-modify-write of Δ plus its mirrored store (12 B); per matrix cell of
// the fused sweep a read-modify-write of τ and Δ, a read of η^β and a
// store of the weight (24 B); per NN-list slot an index read, a weight
// gather and a store (12 B).
func tensorCounts(n, m, nn, iters int) map[string]float64 {
	perIter := 12*m*n + 24*n*n + 12*n*nn
	return map[string]float64{
		"tensor.ant_steps":    float64(iters * m * (n - 1)),
		"tensor.update_bytes": float64(iters * perIter),
	}
}

// coreSolve is the facade's simulated-GPU AS path on the given derived
// data: a fresh device model, the engine, then per iteration the
// construction stage with the host read-back of the best tour, and the
// pheromone stage. It returns the simulated seconds summed as
// core.Engine.RunContext sums them, and the stages' simulator counts.
func coreSolve(tr *tracer, op, parent int, in *tsp.Instance, p antgpu.Params, d *tsp.Derived,
	tv core.TourVersion, pv core.PherVersion, iters int) ([]int32, int64, float64, map[string]float64, error) {
	var e *core.Engine
	var err error
	tr.do(op, parent, "core.build", func() {
		e, err = core.NewEngineWithOptions(cuda.TeslaM2050(), in, p, core.EngineOptions{Derived: d})
	})
	if err != nil {
		return nil, 0, 0, nil, fmt.Errorf("core engine: %w", err)
	}
	defer e.Free()
	counts := make(map[string]float64)
	add := func(prefix string, st *core.StageResult) {
		counts[prefix+"_sim_ms"] += st.Millis()
		for _, k := range st.Kernels {
			counts["cuda.warp_issues"] += k.Meter.Issues()
			counts["cuda.global_tx"] += float64(k.Meter.GlobalTx())
			counts["cuda.atomic_instr"] += k.Meter.AtomicInstr
		}
	}
	total := 0.0
	for i := 0; i < iters; i++ {
		var c, u *core.StageResult
		tr.do(op, parent, "core.construct", func() {
			if c, err = e.ConstructTours(tv); err == nil {
				_, _, err = e.ReadBest()
			}
		})
		if err == nil {
			tr.do(op, parent, "core.update", func() { u, err = e.UpdatePheromone(pv) })
		}
		if err != nil {
			return nil, 0, 0, nil, fmt.Errorf("core iteration %d: %w", i, err)
		}
		total += c.Seconds() + u.Seconds()
		add("core.construct", c)
		add("core.update", u)
	}
	tour, l := e.Best()
	return tour, l, total, counts, nil
}
