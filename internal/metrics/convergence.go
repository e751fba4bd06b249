package metrics

import "math"

// Convergence statistics of an ACO run. The GPU literature following the
// paper (Skinderowicz 2016 among others) evaluates solution quality by
// per-iteration convergence curves, and diagnoses stagnation — the whole
// colony retracing one tour — with two pheromone-matrix statistics:
//
//   - entropy: the Shannon entropy of each city's outgoing pheromone row,
//     normalised to [0, 1] and averaged over cities. A uniform matrix (the
//     τ0 start) scores 1; a matrix concentrated on one tour approaches 0.
//   - λ-branching factor: the average number of edges per city whose trail
//     exceeds τmin_i + λ·(τmax_i − τmin_i) (Gambardella & Dorigo's
//     stagnation measure, λ = 0.05). It starts near the city count and
//     collapses towards 2 (one tour edge in, one out) as the colony
//     converges.
//
// A Convergence recorder owns the gauge series of one solve (labeled by
// instance, algorithm and backend) and computes both statistics from the
// pheromone matrix only when recording is enabled: a nil *Convergence is a
// valid disabled recorder whose methods are no-ops, so the engines guard a
// single pointer on the iteration path.

// LambdaBranchingFactor is the λ of the λ-branching statistic.
const LambdaBranchingFactor = 0.05

// IterationEvent is one iteration's complete convergence snapshot, as
// delivered to a sink (NewConvergenceWithSink): the per-iteration and
// best-so-far tour lengths, the gap to the known optimum (when one was
// given), and the two stagnation statistics. It is the unit a solve
// service streams to a waiting client.
type IterationEvent struct {
	// Iteration is the 1-based iteration number within the solve.
	Iteration int `json:"iteration"`
	// Best is the best tour length found in this iteration.
	Best float64 `json:"best"`
	// Mean is the mean tour length over all ants in this iteration.
	Mean float64 `json:"mean"`
	// BestSoFar is the best tour length found so far in the solve.
	BestSoFar int64 `json:"best_so_far"`
	// Gap is BestSoFar over the known optimum minus one; zero when no
	// optimum was given.
	Gap float64 `json:"gap,omitempty"`
	// Entropy is the mean normalised Shannon entropy of the pheromone rows.
	Entropy float64 `json:"entropy"`
	// Lambda is the average λ-branching factor of the pheromone matrix.
	Lambda float64 `json:"lambda"`
}

// Convergence records per-iteration solution-quality and stagnation
// metrics for one solve. Create it with NewConvergence (gauges only) or
// NewConvergenceWithSink (gauges plus an event feed); nil is a no-op.
type Convergence struct {
	iters    Counter
	iterBest Gauge
	iterMean Gauge
	best     Gauge
	gap      Gauge
	entropy  Gauge
	lambda   Gauge
	optimum  float64

	// sink receives one IterationEvent per iteration. Calls are serial
	// within one solve; the recorder itself needs no locking.
	sink func(IterationEvent)
	iter int
}

// NewConvergence returns a recorder writing to reg with the given series
// labels. optimum, when positive, is the known optimal tour length of the
// instance and enables the gap-to-optimum gauge. A nil registry returns a
// nil (disabled) recorder.
func NewConvergence(reg *Registry, instance, algorithm, backend string, optimum int64) *Convergence {
	if reg == nil {
		return nil
	}
	return newConvergence(reg, instance, algorithm, backend, optimum)
}

// NewConvergenceWithSink is NewConvergence with a per-iteration event feed:
// sink is called once per iteration, in iteration order, from the solve
// goroutine. Unlike NewConvergence, the registry may be nil when a sink is
// given — the recorder then feeds the sink only (the gauge handles are
// no-ops), so a client can stream convergence without running a registry.
// A nil sink makes this identical to NewConvergence.
func NewConvergenceWithSink(reg *Registry, instance, algorithm, backend string, optimum int64, sink func(IterationEvent)) *Convergence {
	if sink == nil {
		return NewConvergence(reg, instance, algorithm, backend, optimum)
	}
	c := newConvergence(reg, instance, algorithm, backend, optimum)
	c.sink = sink
	return c
}

func newConvergence(reg *Registry, instance, algorithm, backend string, optimum int64) *Convergence {
	l := []string{"instance", instance, "algorithm", algorithm, "backend", backend}
	c := &Convergence{
		iters: reg.Counter("antgpu_iterations_total",
			"ACO iterations completed.", l...),
		iterBest: reg.Gauge("antgpu_iteration_best_length",
			"Best tour length found in the latest iteration.", l...),
		iterMean: reg.Gauge("antgpu_iteration_mean_length",
			"Mean tour length over all ants in the latest iteration.", l...),
		best: reg.Gauge("antgpu_best_length",
			"Best-so-far tour length.", l...),
		entropy: reg.Gauge("antgpu_pheromone_entropy",
			"Mean normalised Shannon entropy of the pheromone rows (1 uniform, 0 converged).", l...),
		lambda: reg.Gauge("antgpu_lambda_branching",
			"Average lambda-branching factor of the pheromone matrix (stagnation when near 2).", l...),
	}
	if optimum > 0 {
		c.optimum = float64(optimum)
		c.gap = reg.Gauge("antgpu_optimum_gap_ratio",
			"Best-so-far tour length over the known optimum, minus one.", l...)
	}
	return c
}

// Record64 publishes one iteration: its best and mean tour length, the
// best-so-far, and the stagnation statistics of the n×n float64 pheromone
// matrix (the CPU colony's trails).
func (c *Convergence) Record64(iterBest, iterMean float64, bestSoFar int64, pher []float64, n int) {
	if c == nil {
		return
	}
	c.record(iterBest, iterMean, bestSoFar, Entropy64(pher, n), LambdaBranching64(pher, n))
}

// Record32 is Record64 over n×n float32 trails (the device and tensor
// engines').
func (c *Convergence) Record32(iterBest, iterMean float64, bestSoFar int64, pher []float32, n int) {
	if c == nil {
		return
	}
	c.record(iterBest, iterMean, bestSoFar, Entropy32(pher, n), LambdaBranching32(pher, n))
}

func (c *Convergence) record(iterBest, iterMean float64, bestSoFar int64, entropy, lambda float64) {
	c.iters.Inc()
	c.iterBest.Set(iterBest)
	c.iterMean.Set(iterMean)
	c.best.Set(float64(bestSoFar))
	gap := 0.0
	if c.optimum > 0 {
		gap = float64(bestSoFar)/c.optimum - 1
		c.gap.Set(gap)
	}
	c.entropy.Set(entropy)
	c.lambda.Set(lambda)
	if c.sink != nil {
		c.iter++
		c.sink(IterationEvent{
			Iteration: c.iter, Best: iterBest, Mean: iterMean, BestSoFar: bestSoFar,
			Gap: gap, Entropy: entropy, Lambda: lambda,
		})
	}
}

// Entropy64 returns the mean normalised Shannon entropy of the rows of an
// n×n pheromone matrix: each row's off-diagonal values are normalised to a
// distribution, its entropy divided by log(n−1), and the rows averaged.
// 1 means uniform trails, 0 means every city has a single dominant edge.
func Entropy64(pher []float64, n int) float64 {
	return entropy(func(i int) float64 { return pher[i] }, n)
}

// Entropy32 is Entropy64 over float32 trails.
func Entropy32(pher []float32, n int) float64 {
	return entropy(func(i int) float64 { return float64(pher[i]) }, n)
}

func entropy(at func(int) float64, n int) float64 {
	if n < 3 {
		return 0
	}
	norm := math.Log(float64(n - 1))
	total := 0.0
	for i := 0; i < n; i++ {
		row := i * n
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += at(row + j)
			}
		}
		if sum <= 0 {
			continue
		}
		h := 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			p := at(row+j) / sum
			if p > 0 {
				h -= p * math.Log(p)
			}
		}
		total += h / norm
	}
	return total / float64(n)
}

// LambdaBranching64 returns the average λ-branching factor of an n×n
// pheromone matrix: per city, the number of edges whose trail is at least
// τmin + λ·(τmax − τmin) over that city's row, averaged over cities.
func LambdaBranching64(pher []float64, n int) float64 {
	return lambdaBranching(func(i int) float64 { return pher[i] }, n)
}

// LambdaBranching32 is LambdaBranching64 over float32 trails.
func LambdaBranching32(pher []float32, n int) float64 {
	return lambdaBranching(func(i int) float64 { return float64(pher[i]) }, n)
}

func lambdaBranching(at func(int) float64, n int) float64 {
	if n < 2 {
		return 0
	}
	total := 0
	for i := 0; i < n; i++ {
		row := i * n
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			v := at(row + j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		cut := lo + LambdaBranchingFactor*(hi-lo)
		for j := 0; j < n; j++ {
			if j != i && at(row+j) >= cut {
				total++
			}
		}
	}
	return float64(total) / float64(n)
}
