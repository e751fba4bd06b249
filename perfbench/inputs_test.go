package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenerateIsSeeded(t *testing.T) {
	a, err := generate(7, "cold-large", 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7, "cold-large", 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.tsplib, b.tsplib) {
		t.Fatal("the same seed and op gave different TSPLIB bytes")
	}
	for _, other := range []struct {
		seed   uint64
		stream string
		op     int
	}{{8, "cold-large", 3}, {7, "cold-large", 4}, {7, "paper-gpu", 3}} {
		c, err := generate(other.seed, other.stream, other.op, 200)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.tsplib, c.tsplib) || a.in.TourLength(a.in.NearestNeighbourTour(0)) == c.in.TourLength(c.in.NearestNeighbourTour(0)) {
			t.Errorf("%+v gave the same instance as seed 7, cold-large op 3", other)
		}
	}
}

func TestServiceJobsAreSeeded(t *testing.T) {
	w1, err := newServiceMix(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := newServiceMix(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := newServiceMix(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	unique, differ := 0, 0
	for k := 0; k < 64; k++ {
		a, _ := w1.job(1, k)
		b, _ := w2.job(1, k)
		c, _ := w3.job(1, k)
		if a.key != b.key || a.seed != b.seed || !bytes.Equal(a.inst.tsplib, b.inst.tsplib) {
			t.Fatalf("job %d differs between two mixes with seed 5", k)
		}
		if a.key != c.key || !bytes.Equal(a.inst.tsplib, c.inst.tsplib) {
			differ++
		}
		if strings.Contains(a.key, "/unique") {
			unique++
		}
	}
	if differ == 0 {
		t.Error("seeds 5 and 6 gave the same job sequence")
	}
	if unique == 0 {
		t.Error("no job uploaded a fresh instance")
	}
}
