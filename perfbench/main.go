// Command perfbench is antgpu's benchmark: five seeded workloads run from
// one process, each measured by an untraced run for the end-to-end
// metrics and by a traced run that splits the same ops by layer (tsp,
// tensor, core/cuda, sched and service). It builds its inputs from the
// seed, checks every result, prints a table per run on standard error and
// one JSON summary as the last line of standard output, and writes a
// report (and, traced, the spans) under -out.
//
//	bash perfbench/run.sh                          # the gated workloads, both runs
//	bash perfbench/run.sh --workload warm-iterate --seed 7 --seconds 10 --trace 1
//
// BENCHMARK.json at the repository root lists the metrics and the
// workloads that gate changes. warm-iterate, whose many short two-worker
// fork-join kernels make its op time the most sensitive to contention on
// the host, does not gate: it runs by name or with --workload all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"cold-large", "warm-iterate", "paper-gpu", "service-mix", "service-miss"}

// gatedWorkloads are the workloads BENCHMARK.json lists and the command
// runs by default.
var gatedWorkloads = []string{"cold-large", "paper-gpu", "service-mix", "service-miss"}

// contractEndToEnd are the end-to-end metrics of the summary line, the
// ones BENCHMARK.json bounds. failed_ratio is the summary's failed ÷
// attempted, and sim_iter_ms, which only paper-gpu has, is reported with
// the per-layer metrics.
var contractEndToEnd = []string{
	"setup_s", "solve_s.p50", "ant_steps_per_s", "jobs_per_s",
	"job_latency_s.p50", "job_latency_s.p95", "alloc_mb_per_op", "best_over_nn",
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "cold-large":
		return newColdLarge(seed)
	case "warm-iterate":
		return newWarmIterate(seed)
	case "paper-gpu":
		return newPaperGPU(seed)
	case "service-mix":
		return newServiceMix(seed, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	case "service-miss":
		return newServiceMiss(seed, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, gated, all)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "gated", "workload to run: "+strings.Join(workloadNames, ", ")+
		", gated (those BENCHMARK.json lists) or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceMode := fs.String("trace", "both", "0: untraced end-to-end run, 1: traced per-layer run, both: one of each")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := map[string][]string{"all": workloadNames, "gated": gatedWorkloads}[*wl]
	if names == nil {
		names = []string{*wl}
	}
	modes := map[string][]bool{"0": {false}, "1": {true}, "both": {false, true}}[*traceMode]
	if modes == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --trace 0, 1 or both and --seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e := currentEnv()
	fmt.Fprintf(os.Stderr, "perfbench: nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d seconds=%g\n",
		e.NumCPU, e.GOMAXPROCS, e.Go, e.OS, e.Arch, *seed, *seconds)

	sum := summary{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, name := range names {
		for _, traced := range modes {
			w, err := newWorkload(name, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 2
			}
			rep, err := runOne(w, *seed, *seconds, traced, *out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				return 1
			}
			rep.print()
			sum.add(rep, len(names) > 1 || len(modes) > 1)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// env records where the figures were measured.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentEnv() env {
	return env{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// finding is one predicted property of the layer split, as observed.
type finding struct {
	Claim string `json:"claim"`
	Holds bool   `json:"holds"`
}

// report is everything one run measured; it is written as JSON beside
// the spans.
type report struct {
	Env       env                `json:"env"`
	Workload  spec               `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Metrics   []metric           `json:"metrics"`
	OpWalls   []float64          `json:"op_walls_s"`
	SelfTimes map[string]float64 `json:"self_s_per_op,omitempty"`
	Split     []finding          `json:"split,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	SpansFile string             `json:"spans_file,omitempty"`
}

// runOne makes one run of a workload: untraced (set-up timings, the timed
// loop, a verifying repeat) or traced (an untraced half and a traced half
// over the same op sequence, each after its own set-up, then a traced
// repeat).
func runOne(w workload, seed uint64, seconds float64, traced bool, out string) (*report, error) {
	sp := w.spec()
	window := time.Duration(seconds * float64(time.Second))
	// A safety net only: every op checks the context, so a hung layer ends
	// the run well inside the benchmark's three-minute limit.
	ctx, cancel := context.WithTimeout(context.Background(), 2*window+150*time.Second)
	defer cancel()
	defer w.close()
	rep := &report{Env: currentEnv(), Workload: sp, Seed: seed, Seconds: seconds, Traced: traced}
	var all []*record
	if !traced {
		setups, err := measureSetup(ctx, w)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		a0 := allocated()
		loop := w.run(ctx, window, nil)
		alloc := allocated() - a0
		ver := w.verify(ctx, nil, loop)
		all = ptrs(loop, ver)
		checkRepeats(all)
		rep.Metrics = endToEnd(sp, loop, setups, alloc)
		rep.OpWalls = walls(loop)
	} else {
		if err := w.setup(ctx, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		untraced := w.run(ctx, window/2, nil)
		// Both halves start from the same set-up, so the traced half meets
		// the caches as the untraced half did.
		w.close()
		if err := w.setup(ctx, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr := newTracer()
		h0, m0 := w.cacheStats()
		tracedRecs := w.run(ctx, window/2, tr)
		h1, m1 := w.cacheStats()
		ver := w.verify(ctx, newTracer(), tracedRecs)
		all = ptrs(untraced, tracedRecs, ver)
		checkRepeats(all)
		spans := tr.snapshot()
		rep.Metrics, rep.SelfTimes = perLayer(spans, tracedRecs, untraced, h1-h0, m1-m0)
		rep.Split = split(sp.Name, rep.Metrics)
		rep.OpWalls = walls(tracedRecs)
		rep.SpansFile = filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", sp.Name, seed))
		if err := writeSpans(rep.SpansFile, spans); err != nil {
			return nil, err
		}
	}
	for _, r := range all {
		rep.Attempted++
		if r.failed {
			rep.Failed++
			if len(rep.Errors) < 10 {
				rep.Errors = append(rep.Errors, r.err)
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", sp.Name, seed, int(b2f(traced)))
	return rep, os.WriteFile(filepath.Join(out, name), data, 0o644)
}

func walls(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.wall.Seconds()
	}
	return out
}

func ptrs(groups ...[]record) []*record {
	var out []*record
	for _, g := range groups {
		for i := range g {
			out = append(out, &g[i])
		}
	}
	return out
}

// split checks the layer split each workload was chosen for.
func split(name string, ms []metric) []finding {
	v := make(map[string]float64)
	for _, m := range ms {
		v[m.Name] = m.Value
	}
	op := v["trace.op_s"]
	var tsp float64
	for k, x := range v {
		if strings.HasPrefix(k, "tsp.") {
			tsp += x
		}
	}
	switch name {
	case "cold-large":
		largest := ""
		for _, m := range ms {
			if strings.HasSuffix(m.Name, "_s") && m.Name != "trace.op_s" && (largest == "" || m.Value > v[largest]) {
				largest = m.Name
			}
		}
		return []finding{{"tsp.nnlist_s is the largest self time (largest: " + largest + ")", largest == "tsp.nnlist_s"}}
	case "warm-iterate":
		return []finding{
			{"tensor.construct_s + tensor.update_s are most of an op", v["tensor.construct_s"]+v["tensor.update_s"] > op/2},
			{"tsp.* is near zero (under 1% of an op)", tsp < op/100},
		}
	case "paper-gpu":
		return []finding{{"core.construct_s + core.update_s are most of an op", v["core.construct_s"]+v["core.update_s"] > op/2}}
	case "service-mix", "service-miss":
		return []finding{{"no solver layer is the majority: service.run_s under half of an op", v["service.run_s"] < op/2}}
	}
	return nil
}

func (r *report) print() {
	sp := r.Workload
	mode := "untraced: end-to-end metrics"
	if r.Traced {
		mode = "traced: per-layer metrics, per op"
	}
	fmt.Fprintf(os.Stderr, "\n%s (%s)\n  n=%s m=%s iterations=%d backend=%s clients=%d\n  variant: %s\n  loop: %s\n  why: %s\n",
		sp.Name, mode, sp.N, sp.M, sp.Iterations, sp.Backend, sp.Clients, sp.Variant, sp.Loop, sp.Why)
	for _, m := range r.Metrics {
		extra := ""
		if m.Pct != 0 {
			extra = fmt.Sprintf("p%d of ", m.Pct)
		}
		if m.Samples != 0 {
			extra += fmt.Sprintf("%d samples", m.Samples)
		}
		if m.Note != "" {
			extra += " " + m.Note
		}
		fmt.Fprintf(os.Stderr, "  %-24s %14.6g %-14s %s\n", m.Name, m.Value, m.Unit, extra)
	}
	if len(r.SelfTimes) > 0 {
		names := make([]string, 0, len(r.SelfTimes))
		for k := range r.SelfTimes {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfTimes[names[i]] > r.SelfTimes[names[j]] })
		fmt.Fprintf(os.Stderr, "  self time per op:")
		for _, k := range names {
			fmt.Fprintf(os.Stderr, " %s=%.4gs", k, r.SelfTimes[k])
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, f := range r.Split {
		fmt.Fprintf(os.Stderr, "  split: %-5v %s\n", f.Holds, f.Claim)
	}
	fmt.Fprintf(os.Stderr, "  checks: %d ops attempted, %d failed\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", e)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds a run into the summary: the contract's end-to-end metrics of
// an untraced run, every per-layer metric of a traced one, prefixed with
// the workload name when the command ran more than one run.
func (s *summary) add(r *report, prefixed bool) {
	s.Attempted += r.Attempted
	s.Failed += r.Failed
	s.Correct = s.Correct && r.Failed == 0
	keep := make(map[string]bool)
	for _, n := range contractEndToEnd {
		keep[n] = !r.Traced
	}
	for _, m := range r.Metrics {
		if !r.Traced && !keep[m.Name] {
			continue
		}
		name := m.Name
		if prefixed {
			name = r.Workload.Name + "." + name
		}
		s.Metrics[name] = jsonMetric{m.Value, m.Unit}
	}
}
