package tsp

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"antgpu/internal/rng"
)

// sortNNList is the reference NN-list construction: sort all n-1
// neighbours of every city by (distance, index) and keep the first nn.
// NNList must reproduce it exactly.
func sortNNList(in *Instance, nn int) []int32 {
	n := in.n
	if nn > n-1 {
		nn = n - 1
	}
	list := make([]int32, n*nn)
	idx := make([]int32, n-1)
	for i := 0; i < n; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if j != i {
				idx[k] = int32(j)
				k++
			}
		}
		row := in.matrix[i*n:]
		sort.Slice(idx, func(a, b int) bool {
			da, db := row[idx[a]], row[idx[b]]
			if da != db {
				return da < db
			}
			return idx[a] < idx[b]
		})
		copy(list[i*nn:(i+1)*nn], idx[:nn])
	}
	return list
}

// generatedEuc2D is a uniform EUC_2D instance of n cities.
func generatedEuc2D(tb testing.TB, n int) *Instance {
	tb.Helper()
	in, err := Generate(GenSpec{Name: fmt.Sprintf("u%d", n), N: n, Type: Euc2D, Seed: uint64(n)})
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestNNListMatchesSortReference pins NNList to the sort-based reference
// element for element. The explicit matrices draw distances from [0,4], so
// almost every row is full of ties and the index tie-break decides most
// positions; the nn values cover 1, interior widths, the full row (n-1)
// and the clamp above it.
func TestNNListMatchesSortReference(t *testing.T) {
	g := rng.Seed(12, 0)
	for n := 3; n <= 200; n++ {
		m := make([]int32, n*n)
		for i := range m {
			m[i] = int32(g.Intn(5))
		}
		in, err := NewExplicit(fmt.Sprintf("ties%d", n), n, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, nn := range []int{1, 5, 20, n - 1, n + 3} {
			if got, want := in.NNList(nn), sortNNList(in, nn); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d nn=%d: NNList differs from the sort reference", n, nn)
			}
		}
	}
	for _, n := range []int{1002, 2392} {
		in := generatedEuc2D(t, n)
		if got, want := in.NNList(20), sortNNList(in, 20); !reflect.DeepEqual(got, want) {
			t.Fatalf("EUC_2D n=%d nn=20: NNList differs from the sort reference", n)
		}
	}
}

func BenchmarkNNList(b *testing.B) {
	for _, n := range []int{1002, 2392} {
		in := generatedEuc2D(b, n)
		b.Run(fmt.Sprintf("n=%d/nn=20", n), func(b *testing.B) {
			for b.Loop() {
				in.NNList(20)
			}
		})
	}
}
