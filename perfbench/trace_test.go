package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Op: 0, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Op: 0, Name: "tsp.derived", Start: ms(0), End: ms(40)},
		{ID: 3, Parent: 2, Op: 0, Name: "tsp.nnlist", Start: ms(0), End: ms(30)},
		{ID: 4, Parent: 2, Op: 0, Name: "tsp.nntour", Start: ms(30), End: ms(35)},
		{ID: 5, Parent: 1, Op: 0, Name: "tensor.construct", Start: ms(50), End: ms(70)},
		{ID: 6, Parent: 1, Op: 0, Name: "tensor.construct", Start: ms(70), End: ms(90)},
		// A second op: children that overlap each other and reach outside
		// their parent count once, and only inside it.
		{ID: 7, Op: 1, Name: "op", Start: ms(200), End: ms(300)},
		{ID: 8, Parent: 7, Op: 1, Name: "service.submit", Start: ms(190), End: ms(230)},
		{ID: 9, Parent: 7, Op: 1, Name: "service.run", Start: ms(220), End: ms(260)},
		{ID: 10, Parent: 7, Op: 1, Name: "service.deliver", Start: ms(280), End: ms(320)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op":               ms(100-40-40) + ms(100-60-20),
		"tsp.derived":      ms(40 - 35),
		"tsp.nnlist":       ms(30),
		"tsp.nntour":       ms(5),
		"tensor.construct": ms(40),
		"service.submit":   ms(40),
		"service.run":      ms(40),
		"service.deliver":  ms(40),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d span names, want %d: %v", len(got), len(want), got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do(0, tr.begin(0, 0, "op"), "x", func() { ran = true })
	tr.interval(0, 0, "y", time.Now(), time.Now())
	if !ran || tr.snapshot() != nil {
		t.Fatal("a nil tracer must run the call and record nothing")
	}
}
