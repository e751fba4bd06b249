package cuda_test

import (
	"math/bits"
	"testing"

	"antgpu/internal/cuda"
)

// Host-performance benchmarks for the simulator itself: ns of wall-clock
// per simulated lane operation and allocations per launch, comparing the
// per-thread scalar path against the warp-vector fast path on the same
// access patterns (rows, atomics, and shared-memory argmax trees over full
// and ragged-tail tiles). Run with:
//
//	go test -bench=Launch -benchmem ./internal/cuda/
const (
	benchElems = 1 << 15
	benchBlock = 256
)

func benchLoop(b *testing.B, cfg cuda.LaunchConfig, laneOps int, k cuda.Kernel) {
	b.Helper()
	dev := cuda.TeslaM2050()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cuda.Launch(dev, cfg, "bench", k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(laneOps), "ns/lane-op")
}

func rowKernels() (scalar, vector cuda.Kernel, cfg cuda.LaunchConfig, src, dst *cuda.F32) {
	src = cuda.MallocF32("src", benchElems)
	dst = cuda.MallocF32("dst", benchElems)
	for i := range src.Data() {
		src.Data()[i] = float32(i)
	}
	cfg = cuda.LaunchConfig{Grid: cuda.D1(benchElems / benchBlock), Block: cuda.D1(benchBlock)}
	scalar = func(b *cuda.Block) {
		b.Run(func(th *cuda.Thread) {
			gid := th.GlobalID()
			v := th.LdF32(src, gid)
			th.Charge(1)
			th.StF32(dst, gid, v*2)
		})
	}
	vector = func(b *cuda.Block) {
		b.RunWarps(func(w *cuda.Warp) {
			gbase := b.LinearIdx()*b.Threads() + w.Base()
			var v [32]float32
			w.LdF32Masked(src, gbase, w.Mask(), v[:])
			w.Charge(1)
			for l := 0; l < 32; l++ {
				v[l] *= 2
			}
			w.StF32Masked(dst, gbase, w.Mask(), v[:])
		})
	}
	return
}

func BenchmarkLaunchScalarRows(b *testing.B) {
	scalar, _, cfg, _, _ := rowKernels()
	benchLoop(b, cfg, benchElems, scalar)
}

func BenchmarkLaunchVectorRows(b *testing.B) {
	_, vector, cfg, _, _ := rowKernels()
	benchLoop(b, cfg, benchElems, vector)
}

func atomicKernels() (scalar, vector cuda.Kernel, cfg cuda.LaunchConfig) {
	dst := cuda.MallocF32("hist", 4096)
	cfg = cuda.LaunchConfig{Grid: cuda.D1(benchElems / benchBlock), Block: cuda.D1(benchBlock)}
	scalar = func(b *cuda.Block) {
		b.Run(func(th *cuda.Thread) {
			gid := th.GlobalID()
			th.AtomicAddF32(dst, gid%4096, 1)
		})
	}
	vector = func(b *cuda.Block) {
		b.RunWarps(func(w *cuda.Warp) {
			gbase := b.LinearIdx()*b.Threads() + w.Base()
			var idxs [32]int32
			var ones [32]float32
			for l := 0; l < 32; l++ {
				idxs[l] = int32((gbase + l) % 4096)
				ones[l] = 1
			}
			w.AtomicAddF32Scatter(dst, idxs[:], w.Mask(), ones[:])
		})
	}
	return
}

func BenchmarkLaunchScalarAtomics(b *testing.B) {
	scalar, _, cfg := atomicKernels()
	benchLoop(b, cfg, benchElems, scalar)
}

func BenchmarkLaunchVectorAtomics(b *testing.B) {
	_, vector, cfg := atomicKernels()
	benchLoop(b, cfg, benchElems, vector)
}

// reduceTrees is the number of argmax trees each block of the reduce
// benchmarks runs, each after a shared-row fill phase: the shape of the
// data-parallel construction's per-tile selection.
const reduceTrees = 8

// reduceKernels builds the scalar and vector reduce benchmarks over rows
// whose first live slots hold candidates and whose rest hold the -1
// padding of a tail tile (live = benchBlock: a full tile).
func reduceKernels(live int) (scalar, vector cuda.Kernel, cfg cuda.LaunchConfig, laneOps int) {
	cfg = cuda.LaunchConfig{
		Grid:        cuda.D1(benchElems / benchBlock),
		Block:       cuda.D1(benchBlock),
		SharedBytes: 8 * benchBlock,
	}
	levels := bits.Len(uint(benchBlock)) - 1
	laneOps = benchElems * reduceTrees * (1 + levels)
	value := func(tree, tid int) float32 {
		if tid >= live {
			return -1
		}
		return float32((tid*(2*tree+7) + tree) % 251)
	}
	scalar = func(b *cuda.Block) {
		vals := b.SharedF32(benchBlock)
		idxs := b.SharedI32(benchBlock)
		for tree := 0; tree < reduceTrees; tree++ {
			b.Run(func(th *cuda.Thread) {
				th.StShF32(vals, th.ID(), value(tree, th.ID()))
				th.StShI32(idxs, th.ID(), int32(th.ID()))
			})
			b.Sync()
			for s := benchBlock / 2; s > 0; s /= 2 {
				b.Run(func(th *cuda.Thread) {
					if th.ID() < s {
						a := th.LdShF32(vals, th.ID())
						c := th.LdShF32(vals, th.ID()+s)
						th.Charge(1)
						if c > a {
							th.StShF32(vals, th.ID(), c)
							th.StShI32(idxs, th.ID(), th.LdShI32(idxs, th.ID()+s))
						}
					}
				})
				b.Sync()
			}
		}
	}
	vector = func(b *cuda.Block) {
		vals := b.SharedF32(benchBlock)
		idxs := b.SharedI32(benchBlock)
		for tree := 0; tree < reduceTrees; tree++ {
			b.RunWarps(func(w *cuda.Warp) {
				if w.Base() >= live {
					w.StShF32I32Fill(vals, -1, idxs, int32(w.Base()), w.Base(), w.Mask())
					return
				}
				var v [32]float32
				var ix [32]int32
				for l := 0; l < w.Active(); l++ {
					v[l] = value(tree, w.Base()+l)
					ix[l] = int32(w.Base() + l)
				}
				w.StShF32Masked(vals, w.Base(), w.Mask(), v[:])
				w.StShI32Masked(idxs, w.Base(), w.Mask(), ix[:])
			})
			b.Sync()
			b.ReduceArgMaxShared(vals, idxs, benchBlock, live, 1)
		}
	}
	return
}

func BenchmarkLaunchScalarReduce(b *testing.B) {
	scalar, _, cfg, laneOps := reduceKernels(benchBlock)
	benchLoop(b, cfg, laneOps, scalar)
}

func BenchmarkLaunchVectorReduce(b *testing.B) {
	_, vector, cfg, laneOps := reduceKernels(benchBlock)
	benchLoop(b, cfg, laneOps, vector)
}

// reduceTailLive is the live length of the ragged-tail reduce rows: the
// 24-city tail tile of a 280-city instance on 256-thread blocks.
const reduceTailLive = 24

func BenchmarkLaunchScalarReduceTail(b *testing.B) {
	scalar, _, cfg, laneOps := reduceKernels(reduceTailLive)
	benchLoop(b, cfg, laneOps, scalar)
}

func BenchmarkLaunchVectorReduceTail(b *testing.B) {
	_, vector, cfg, laneOps := reduceKernels(reduceTailLive)
	benchLoop(b, cfg, laneOps, vector)
}
