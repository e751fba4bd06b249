package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"antgpu/internal/tsp"
)

// spec describes a workload for the report: what it runs and why.
type spec struct {
	Name       string `json:"name"`
	Why        string `json:"why"`
	N          string `json:"n"`
	M          string `json:"m"`
	Iterations int    `json:"iterations"`
	Backend    string `json:"backend"`
	Variant    string `json:"variant"`
	Clients    int    `json:"clients"`
	Loop       string `json:"loop"`
	// TailPct is the percentile job_latency_s.p95 reports. It is fixed
	// per workload, so that two runs, or two commits, compare the same
	// percentile however many ops each managed: 95 on the service
	// workloads, whose runs have hundreds of jobs or more, 75 on
	// warm-iterate (about a hundred ops), and the median on cold-large and
	// paper-gpu, whose runs have a few dozen ops at most.
	TailPct int `json:"tail_percentile"`
}

// workload is one seeded traffic shape. Its ops go through the program's
// public API; with a tracer, each op makes the same calls layer by layer,
// wrapped in spans.
type workload interface {
	spec() spec
	// setup prepares what the timed loop needs and is timed as setup_s;
	// traced also prepares what the traced ops need. Calling it again
	// after close replaces the previous set-up.
	setup(ctx context.Context, traced bool) error
	// run is the closed loop: it issues ops from op index 0 until d has
	// passed and returns one record per op. A nil tracer runs untraced.
	run(ctx context.Context, d time.Duration, tr *tracer) []record
	// verify repeats requests outside the timed loop (op 0 again, or a
	// direct facade solve of sampled service jobs); their records must
	// match the loop's records with the same key.
	verify(ctx context.Context, tr *tracer, done []record) []record
	// cacheStats reports the derived-data cache counters the traced ops
	// go through (zero for workloads without a cache).
	cacheStats() (hits, misses int64)
	close()
}

// record is one op: its timing, its outcome and the counters it produced.
type record struct {
	op      int
	key     string        // request identity; equal keys must give equal fingerprints
	wall    time.Duration // from submit to result
	failed  bool          // an error, a refusal or a failed check
	refused bool
	err     string
	backend string // the backend a service job reported
	n, m    int
	iters   int
	bestLen int64
	nnLen   int64              // greedy nearest-neighbour tour length from city 0
	simSec  float64            // simulated GPU seconds; zero off the simulator
	counts  map[string]float64 // per-op layer counters, named as their metrics
}

// fail marks the record failed with the first error seen.
func (r *record) fail(format string, args ...any) {
	if !r.failed {
		r.err = fmt.Sprintf(format, args...)
	}
	r.failed = true
}

// checkTour applies the cheap invariants to a reported best tour: it is a
// permutation of the instance's cities and its recomputed length equals
// the reported one.
func (r *record) checkTour(in *tsp.Instance, tour []int32, bestLen int64) {
	if err := in.ValidTour(tour); err != nil {
		r.fail("op %d: best tour: %v", r.op, err)
		return
	}
	if l := in.TourLength(tour); l != bestLen {
		r.fail("op %d: best tour length %d, reported %d", r.op, l, bestLen)
	}
}

// fingerprint is what must repeat exactly for one request key.
func (r *record) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "best=%d", r.bestLen)
	if r.simSec != 0 {
		fmt.Fprintf(&b, " sim=%v", r.simSec)
	}
	return b.String()
}

// countsFingerprint covers the simulator counts, which only traced ops
// read; it is compared between records that both carry them.
func (r *record) countsFingerprint() string {
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		if strings.HasPrefix(k, "cuda.") || strings.HasSuffix(k, "_sim_ms") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v ", k, r.counts[k])
	}
	return b.String()
}

// checkRepeats fails every record whose fingerprint differs from the
// first record with the same key: the same seed must give the same best
// length (and simulated time and counts) on every repeat, traced or not.
func checkRepeats(recs []*record) {
	first := make(map[string]*record)
	firstCounts := make(map[string]*record)
	for _, r := range recs {
		if r.failed || r.key == "" {
			continue
		}
		if f, ok := first[r.key]; !ok {
			first[r.key] = r
		} else if a, b := f.fingerprint(), r.fingerprint(); a != b {
			r.fail("%s: op %d gave %s, a repeat of it gave %s", r.key, f.op, a, b)
		}
		if c := r.countsFingerprint(); c != "" {
			if f, ok := firstCounts[r.key]; !ok {
				firstCounts[r.key] = r
			} else if a := f.countsFingerprint(); a != c {
				r.fail("%s: op %d counted %s, a repeat of it counted %s", r.key, f.op, a, c)
			}
		}
	}
}

// closedLoop runs one client's ops back to back until d has passed; op i
// gets index i. It always runs at least one op.
func closedLoop(d time.Duration, op func(i int) record) []record {
	var recs []record
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		recs = append(recs, op(i))
	}
	return recs
}

// metric is one reported figure.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Pct     int     `json:"percentile,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// endToEnd computes the user-visible metrics of an untraced loop.
func endToEnd(sp spec, recs []record, setups []float64, allocBytes uint64) []metric {
	var walls, lat, ratios, sims []float64
	var steps, busy float64
	ok := 0
	for _, r := range recs {
		busy += r.wall.Seconds()
		if r.failed {
			lat = append(lat, miss)
			continue
		}
		ok++
		walls = append(walls, r.wall.Seconds())
		lat = append(lat, r.wall.Seconds())
		steps += float64(r.iters * r.m * (r.n - 1))
		if r.nnLen > 0 {
			ratios = append(ratios, float64(r.bestLen)/float64(r.nnLen))
		}
		if r.simSec > 0 {
			sims = append(sims, r.simSec*1e3/float64(r.iters))
		}
	}
	// The clients work concurrently, so the loop's busy time is the summed
	// op wall per client.
	busy /= float64(sp.Clients)
	failed := len(recs) - ok
	tail := metric{Name: "job_latency_s.p95", Value: percentile(lat, sp.TailPct), Unit: "s", Samples: len(lat), Pct: sp.TailPct}
	if len(lat)-rank(sp.TailPct, len(lat)) < tailSamples {
		tail.Note = fmt.Sprintf("(fewer than %d samples beyond it)", tailSamples)
	}
	// job_latency_s.tail applies the reporting rule to this run's own
	// sample count; it is reported, not gated.
	p := tailPct(len(lat), 95)
	out := []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups), Note: "median of set-ups"},
		{Name: "solve_s.p50", Value: median(walls), Unit: "s", Samples: len(walls), Pct: 50},
		{Name: "ant_steps_per_s", Value: div(steps, busy), Unit: "1/s", Samples: ok},
		{Name: "jobs_per_s", Value: div(float64(ok), busy), Unit: "1/s", Samples: ok},
		{Name: "job_latency_s.p50", Value: median(lat), Unit: "s", Samples: len(lat), Pct: 50},
		tail,
		{Name: "job_latency_s.tail", Value: percentile(lat, p), Unit: "s", Samples: len(lat), Pct: p},
		{Name: "failed_ratio", Value: div(float64(failed), float64(len(recs))), Unit: "ratio", Samples: len(recs)},
		{Name: "alloc_mb_per_op", Value: div(float64(allocBytes)/1e6, float64(len(recs))), Unit: "MB", Samples: len(recs)},
		{Name: "best_over_nn", Value: median(ratios), Unit: "ratio", Samples: len(ratios), Pct: 50},
	}
	if len(sims) > 0 {
		out = append(out, metric{Name: "sim_iter_ms", Value: median(sims), Unit: "sim_ms", Samples: len(sims), Pct: 50})
	} else {
		out = append(out, metric{Name: "sim_iter_ms", Unit: "sim_ms", Note: "n/a: no simulated GPU on this workload"})
	}
	return out
}

// layerMetrics lists the per-layer metrics in report order with units.
var layerMetrics = []struct{ name, unit string }{
	{"tsp.parse_s", "s"}, {"tsp.nnlist_s", "s"}, {"tsp.nntour_s", "s"}, {"tsp.derived_s", "s"},
	{"tensor.build_s", "s"}, {"tensor.construct_s", "s"}, {"tensor.update_s", "s"},
	{"tensor.ant_steps", "count"}, {"tensor.update_bytes", "bytes_computed"},
	{"core.build_s", "s"}, {"core.construct_s", "s"}, {"core.update_s", "s"},
	{"core.construct_sim_ms", "sim_ms"}, {"core.update_sim_ms", "sim_ms"}, {"sim_iter_ms", "sim_ms"},
	{"cuda.warp_issues", "count"}, {"cuda.global_tx", "count"}, {"cuda.atomic_instr", "count"},
	{"sched.derived_s", "s"}, {"sched.cache_hit_ratio", "ratio"},
	{"service.submit_s", "s"}, {"service.queue_wait_s", "s"}, {"service.run_s", "s"},
	{"service.deliver_s", "s"}, {"service.refused_ratio", "ratio"}, {"service.tensor_share", "ratio"},
	{"trace.op_s", "s"}, {"trace.overhead_ratio", "ratio"},
}

// perLayer turns the traced loop into per-op layer figures: span self
// times and record counters averaged over the traced ops, the cache hit
// ratio over the traced loop, and the traced-versus-untraced op wall gap.
func perLayer(spans []span, traced, untraced []record, hits, misses int64) ([]metric, map[string]float64) {
	ops := float64(len(traced))
	vals := make(map[string]float64)
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		self[name] = d.Seconds() / ops
		vals[name+"_s"] = d.Seconds() / ops
	}
	var refused, tw, uw []float64
	iters := 0
	for _, r := range traced {
		for k, v := range r.counts {
			vals[k] += v / ops
		}
		refused = append(refused, b2f(r.refused))
		tw = append(tw, r.wall.Seconds())
		iters += r.iters
	}
	for _, r := range untraced {
		uw = append(uw, r.wall.Seconds())
	}
	if iters > 0 {
		vals["sim_iter_ms"] = (vals["core.construct_sim_ms"] + vals["core.update_sim_ms"]) * ops / float64(iters)
	}
	vals["sched.cache_hit_ratio"] = div(float64(hits), float64(hits+misses))
	vals["service.refused_ratio"] = mean(refused)
	vals["trace.op_s"] = mean(tw)
	vals["trace.overhead_ratio"] = div(median(tw), median(uw)) - 1
	out := make([]metric, len(layerMetrics))
	for i, lm := range layerMetrics {
		out[i] = metric{Name: lm.name, Value: vals[lm.name], Unit: lm.unit, Samples: len(traced)}
	}
	return out, self
}

// measureSetup runs the workload's set-up until it has at least five
// timings and two seconds of them (at most 25), keeping the last set-up
// for the loop; setup_s is the median.
func measureSetup(ctx context.Context, w workload) ([]float64, error) {
	var times []float64
	total := 0.0
	for len(times) < 5 || (total < 2 && len(times) < 25) {
		if len(times) > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(ctx, false); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.spec().Name, err)
		}
		s := time.Since(start).Seconds()
		times = append(times, s)
		total += s
	}
	return times, nil
}

// allocated returns the bytes allocated so far (MemStats.TotalAlloc).
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// miss is the latency of a failed or refused job: it misses every latency
// limit, and JSON can still carry it.
const miss = 1e308

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
