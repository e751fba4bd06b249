package tsp

import (
	"errors"
	"reflect"
	"testing"
)

// straddleInstance builds a synthetic explicit instance whose distances
// straddle the float32 exact-integer limit: maxD on edge (0,2), with the
// remaining edges just below the limit.
func straddleInstance(t *testing.T, maxD int32) *Instance {
	t.Helper()
	const safe = MaxExactDistF32 - 1
	in, err := NewExplicit("straddle", 3, []int32{
		0, safe, maxD,
		safe, 0, MaxExactDistF32,
		maxD, MaxExactDistF32, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestComputeDerivedDetectsF32Overflow: int32 distances above 2^24 do not
// convert to float32 exactly — distinct edges collapse onto one value — so
// ComputeDerived must refuse them with ErrF32Precision instead of silently
// building a lossy DistF32. The old code converted blindly; this test fails
// against it because the derivation succeeds with a collapsed matrix.
func TestComputeDerivedDetectsF32Overflow(t *testing.T) {
	// The defect being guarded against: 2^24+1 and 2^24 are different int32
	// distances but the same float32.
	if float32(MaxExactDistF32+1) != float32(MaxExactDistF32) {
		t.Fatal("float32 conversion sanity check failed")
	}

	in := straddleInstance(t, MaxExactDistF32+1)
	d, err := in.ComputeDerived(2)
	if err == nil {
		t.Fatalf("ComputeDerived silently accepted a %d distance (DistF32[2] = %v)",
			MaxExactDistF32+1, d.DistF32[2])
	}
	if !errors.Is(err, ErrF32Precision) {
		t.Fatalf("error %v does not wrap ErrF32Precision", err)
	}
	// The refusal names the first offending edge in row-major order, and
	// CheckDistF32 reports the same edge in the same words.
	const wantMsg = `tsp: instance "straddle": d(0,2) = 16777217: distance exceeds exact float32 range (2^24)`
	if err.Error() != wantMsg {
		t.Fatalf("ComputeDerived error = %q, want %q", err, wantMsg)
	}
	if err := in.CheckDistF32(); !errors.Is(err, ErrF32Precision) || err.Error() != wantMsg {
		t.Fatalf("CheckDistF32 = %v, want %q wrapping ErrF32Precision", err, wantMsg)
	}

	// Distances up to and including 2^24 are exact and must keep working.
	ok := straddleInstance(t, MaxExactDistF32)
	d, err = ok.ComputeDerived(2)
	if err != nil {
		t.Fatalf("ComputeDerived rejected exactly representable distances: %v", err)
	}
	if err := ok.CheckDistF32(); err != nil {
		t.Fatalf("CheckDistF32 rejected exactly representable distances: %v", err)
	}
	n := ok.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := int64(d.DistF32[i*n+j]), ok.Dist(i, j); got != int64(want) {
				t.Fatalf("DistF32[%d,%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestComputeDerivedMatchesDirectComputation(t *testing.T) {
	in := MustLoadBenchmark("att48")
	d, err := in.ComputeDerived(30)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != in.N() || d.NN != 30 {
		t.Fatalf("shape = %d x %d, want %d x 30", d.N, d.NN, in.N())
	}
	if !reflect.DeepEqual(d.List, in.NNList(30)) {
		t.Error("derived NN list differs from Instance.NNList")
	}
	if want := in.TourLength(in.NearestNeighbourTour(0)); d.CNN != want {
		t.Errorf("CNN = %d, want %d", d.CNN, want)
	}
	n := in.N()
	if len(d.DistF32) != n*n {
		t.Fatalf("DistF32 has %d entries, want %d", len(d.DistF32), n*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := d.DistF32[i*n+j], float32(in.Dist(i, j)); got != want {
				t.Fatalf("DistF32[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestEffectiveNNClamps(t *testing.T) {
	in := MustLoadBenchmark("att48")
	n := in.N()
	if got := in.EffectiveNN(n + 10); got != n-1 {
		t.Errorf("EffectiveNN(%d) = %d, want %d", n+10, got, n-1)
	}
	if got := in.EffectiveNN(5); got != 5 {
		t.Errorf("EffectiveNN(5) = %d", got)
	}
	d, err := in.ComputeDerived(n * 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NN != n-1 {
		t.Errorf("ComputeDerived clamped to %d, want %d", d.NN, n-1)
	}
}

func TestContentHashIdentifiesContent(t *testing.T) {
	a := MustLoadBenchmark("att48")
	b := MustLoadBenchmark("att48")
	if a.ContentHash() != b.ContentHash() {
		t.Error("two loads of one benchmark hash differently")
	}
	c := MustLoadBenchmark("kroC100")
	if a.ContentHash() == c.ContentHash() {
		t.Error("att48 and kroC100 share a content hash")
	}
	// Determinism across calls.
	if a.ContentHash() != a.ContentHash() {
		t.Error("ContentHash is not deterministic")
	}
}

func TestContentHashIgnoresName(t *testing.T) {
	a := MustLoadBenchmark("att48")
	b := MustLoadBenchmark("att48")
	b.Name = "renamed"
	b.Comment = "different comment"
	if a.ContentHash() != b.ContentHash() {
		t.Error("renaming an instance changed its content hash")
	}
}
