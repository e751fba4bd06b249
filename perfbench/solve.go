package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/sched"
	"antgpu/internal/tensor"
	"antgpu/internal/tsp"
)

// fresh is a workload whose every op parses a new instance and runs one
// uncached antgpu.SolveContext on it: cold-large on the tensor engine and
// paper-gpu on the simulated GPU.
type fresh struct {
	sp    spec
	seed  uint64
	n     int
	ants  int // 0: m = n
	iters int
	gpu   bool
	first input // op 0's instance
}

func newColdLarge(seed uint64) (*fresh, error) {
	return newFresh(&fresh{seed: seed, n: 2392, ants: 25, iters: 5, sp: spec{
		Name: "cold-large",
		Why: "set-up (parse, distance matrix, NN lists, C^nn, η^β) is most of an op, " +
			"so set-up changes show here while the iteration kernels are a small share",
		N: "2392", M: "25", Iterations: 5, Backend: "tensor", Clients: 1, TailPct: 50,
		Variant: "nn-list (aco.NNListConstruction, set explicitly)",
		Loop:    "closed, 1 client; op = tsp.Parse + uncached antgpu.SolveContext, workers = GOMAXPROCS",
	}})
}

func newPaperGPU(seed uint64) (*fresh, error) {
	return newFresh(&fresh{seed: seed, n: 280, iters: 2, gpu: true, sp: spec{
		Name: "paper-gpu",
		Why: "the SIMT simulator's host cost is the whole op and its simulated time is the " +
			"paper's quantity, at the paper's AS setup",
		N: "280", M: "280 (m = n)", Iterations: 2, Backend: "gpu (simulated Tesla M2050)", Clients: 1, TailPct: 50,
		Variant: "data-parallel + texture construction, atomic + shared-memory pheromone (facade defaults)",
		Loop:    "closed, 1 client; op = tsp.Parse + uncached antgpu.SolveContext",
	}})
}

// newFresh generates op 0's instance, which set-up parses and builds on.
func newFresh(w *fresh) (*fresh, error) {
	var err error
	w.first, err = generate(w.seed, w.sp.Name, 0, w.n)
	return w, err
}

func (w *fresh) spec() spec { return w.sp }

func (w *fresh) options(op int) antgpu.SolveOptions {
	o := antgpu.SolveOptions{
		Iterations: w.iters,
		Params:     antgpu.Params{Ants: w.ants, Seed: solverSeed(w.seed, tag(w.sp.Name), uint64(op))},
	}
	if w.gpu {
		o.Backend = antgpu.BackendGPU
	} else {
		o.Backend = antgpu.BackendTensor
		o.Variant = aco.NNListConstruction
	}
	return o
}

// setup is one instance's parse, derived data and engine build, made with
// the calls the facade makes (the engine constructors derive the data
// themselves when given none). Every op repeats it, so the traced run,
// which reports no setup_s, skips it.
func (w *fresh) setup(ctx context.Context, traced bool) error {
	if traced {
		return nil
	}
	in, err := tsp.Parse(bytes.NewReader(w.first.tsplib))
	if err != nil {
		return err
	}
	p := w.options(0).Params.WithDefaults()
	if w.gpu {
		e, err := core.NewEngineWithOptions(cuda.TeslaM2050(), in, p, core.EngineOptions{})
		if err != nil {
			return err
		}
		e.Free()
		return nil
	}
	e, err := tensor.NewWithDerived(in, p, nil)
	if err != nil {
		return err
	}
	e.Close()
	return nil
}

func (w *fresh) run(ctx context.Context, d time.Duration, tr *tracer) []record {
	return closedLoop(d, func(i int) record { return w.op(ctx, i, tr) })
}

func (w *fresh) verify(ctx context.Context, tr *tracer, _ []record) []record {
	return []record{w.op(ctx, 0, tr)}
}

func (w *fresh) cacheStats() (int64, int64) { return 0, 0 }
func (w *fresh) close()                     {}

func (w *fresh) op(ctx context.Context, i int, tr *tracer) record {
	rec := record{op: i, key: fmt.Sprintf("op-%d", i), n: w.n, iters: w.iters}
	inp, err := generate(w.seed, w.sp.Name, i, w.n)
	if err != nil {
		rec.fail("%v", err)
		return rec
	}
	opts := w.options(i)
	p := opts.Params.WithDefaults()
	rec.m = p.AntCount(w.n)

	var in *tsp.Instance
	var tour []int32
	start := time.Now()
	if tr == nil {
		in, err = tsp.Parse(bytes.NewReader(inp.tsplib))
		if err == nil {
			var res *antgpu.Result
			if res, err = antgpu.SolveContext(ctx, in, opts); err == nil {
				tour, rec.bestLen = res.BestTour, res.BestLen
				if w.gpu {
					rec.simSec = res.SimulatedSeconds
				}
			}
		}
	} else {
		root := tr.begin(i, 0, "op")
		var d *tsp.Derived
		if in, err = parse(tr, i, root, inp.tsplib); err == nil {
			d, err = derive(tr, i, root, in, p.NN, w.gpu)
		}
		if err == nil && w.gpu {
			tour, rec.bestLen, rec.simSec, rec.counts, err = coreSolve(tr, i, root, in, p, d,
				antgpu.TourDataParallelTexture, antgpu.PherAtomicShared, w.iters)
		} else if err == nil {
			tour, rec.bestLen, rec.counts, err = tensorSolve(tr, i, root, in, p, d, opts.Variant, w.iters)
		}
		tr.end(root)
	}
	rec.wall = time.Since(start)
	if err != nil {
		rec.fail("op %d: %v", i, err)
		return rec
	}
	rec.checkTour(in, tour, rec.bestLen)
	rec.nnLen = in.TourLength(in.NearestNeighbourTour(0))
	return rec
}

// warm is warm-iterate: one instance, parsed and cached during set-up,
// solved again and again through antgpu.Pool.Submit.
type warm struct {
	seed  uint64
	inp   input
	in    *tsp.Instance // parsed in set-up
	nnLen int64
	pool  *antgpu.Pool
	// cache is what the traced ops derive through: a sched.Cache warmed
	// the way the pool's is, since the pool does not expose its own.
	cache *sched.Cache
}

const (
	warmN     = 1002
	warmAnts  = 25
	warmIters = 50
)

func newWarmIterate(seed uint64) (*warm, error) {
	inp, err := generate(seed, "warm-iterate", 0, warmN)
	return &warm{seed: seed, inp: inp}, err
}

func (w *warm) spec() spec {
	return spec{
		Name: "warm-iterate",
		Why: "set-up is a few percent of an op; each iteration is about 60% construction and 40% " +
			"n² pheromone/weight/wNN sweep, so kernel changes show and NN-list changes should not",
		N: "1002", M: "25", Iterations: warmIters, Backend: "tensor", Clients: 1, TailPct: 75,
		Variant: "nn-list (aco.NNListConstruction, set explicitly)",
		Loop:    "closed, 1 client; op = antgpu.Pool.Submit on a warm derived-data cache, pool workers 1, engine workers = GOMAXPROCS",
	}
}

func (w *warm) options() antgpu.SolveOptions {
	return antgpu.SolveOptions{
		Backend:    antgpu.BackendTensor,
		Iterations: warmIters,
		Variant:    aco.NNListConstruction,
		Params:     antgpu.Params{Ants: warmAnts, Seed: solverSeed(w.seed, tag("warm-iterate"))},
	}
}

// setup starts the pool, parses the instance and warms the pool's
// derived-data cache with a one-iteration solve; for traced ops it warms
// their cache too.
func (w *warm) setup(ctx context.Context, traced bool) error {
	w.pool = antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
	in, err := tsp.Parse(bytes.NewReader(w.inp.tsplib))
	if err != nil {
		return err
	}
	w.in = in
	o := w.options()
	o.Iterations = 1
	if _, err = w.pool.Submit(ctx, antgpu.SolveRequest{Instance: in, Options: o}, nil); err != nil || !traced {
		return err
	}
	w.cache = sched.NewCache()
	_, err = w.cache.Derived(in, o.Params.WithDefaults().NN)
	return err
}

func (w *warm) run(ctx context.Context, d time.Duration, tr *tracer) []record {
	if w.nnLen == 0 {
		w.nnLen = w.in.TourLength(w.in.NearestNeighbourTour(0))
	}
	return closedLoop(d, func(i int) record { return w.op(ctx, i, tr) })
}

func (w *warm) verify(ctx context.Context, tr *tracer, _ []record) []record {
	return []record{w.op(ctx, 0, tr)}
}

func (w *warm) cacheStats() (int64, int64) { return w.cache.Stats() }

func (w *warm) close() { w.pool, w.in, w.cache = nil, nil, nil }

func (w *warm) op(ctx context.Context, i int, tr *tracer) record {
	opts := w.options()
	p := opts.Params.WithDefaults()
	rec := record{op: i, key: "warm", n: warmN, m: p.AntCount(warmN), iters: warmIters, nnLen: w.nnLen}
	var tour []int32
	var err error
	start := time.Now()
	if tr == nil {
		var res *antgpu.Result
		if res, err = w.pool.Submit(ctx, antgpu.SolveRequest{Instance: w.in, Options: opts}, nil); err == nil {
			tour, rec.bestLen = res.BestTour, res.BestLen
		}
	} else {
		root := tr.begin(i, 0, "op")
		var d *tsp.Derived
		tr.do(i, root, "sched.derived", func() { d, err = w.cache.Derived(w.in, p.NN) })
		if err == nil {
			tour, rec.bestLen, rec.counts, err = tensorSolve(tr, i, root, w.in, p, d, opts.Variant, warmIters)
		}
		tr.end(root)
	}
	rec.wall = time.Since(start)
	if err != nil {
		rec.fail("op %d: %v", i, err)
		return rec
	}
	rec.checkTour(w.in, tour, rec.bestLen)
	return rec
}
