package main

import (
	"testing"
	"time"
)

func TestTailPct(t *testing.T) {
	for _, c := range []struct{ n, want, pct int }{
		{1000, 95, 95}, // plenty of samples: the asked-for percentile
		{200, 95, 95},  // exactly ten samples beyond p95
		{199, 95, 94},  // nine beyond p95, eleven beyond p94
		{100, 95, 90},
		{40, 95, 75},
		{20, 95, 50},
		{6, 95, 50}, // too few even for the median: the median, flagged by its count
		{0, 95, 50},
	} {
		if got := tailPct(c.n, c.want); got != c.pct {
			t.Errorf("tailPct(%d, %d) = %d, want %d", c.n, c.want, got, c.pct)
		}
		if c.pct > 50 && c.n-rank(c.pct, c.n) < tailSamples {
			t.Errorf("p%d of %d leaves fewer than %d samples beyond it", c.pct, c.n, tailSamples)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		pct  int
		want float64
	}{{50, 5}, {90, 9}, {95, 10}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(xs, c.pct); got != c.want {
			t.Errorf("p%d = %v, want %v", c.pct, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// TestJobLatencyTailIsFixedPerWorkload checks that the gated tail figure
// keeps the workload's percentile whatever the run's sample count, while
// job_latency_s.tail follows the reporting rule.
func TestJobLatencyTailIsFixedPerWorkload(t *testing.T) {
	for _, ops := range []int{15, 40, 400} {
		recs := make([]record, ops)
		for i := range recs {
			recs[i] = record{op: i, wall: time.Duration(i+1) * time.Millisecond, n: 10, m: 10, iters: 1}
		}
		got := make(map[string]metric)
		for _, m := range endToEnd(spec{Clients: 1, TailPct: 95}, recs, []float64{1}, 0) {
			got[m.Name] = m
		}
		if p := got["job_latency_s.p95"].Pct; p != 95 {
			t.Errorf("%d ops: job_latency_s.p95 reports p%d, want p95", ops, p)
		}
		if p, want := got["job_latency_s.tail"].Pct, tailPct(ops, 95); p != want {
			t.Errorf("%d ops: job_latency_s.tail reports p%d, want p%d", ops, p, want)
		}
	}
}
