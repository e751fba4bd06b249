package tsp

// NNList returns, for each city, its nn nearest neighbours ordered by
// increasing distance (ties broken by city index for determinism). The
// result is a row-major n x nn matrix of city indices. The paper's versions
// (4)–(6) restrict the probabilistic choice to such a list with nn = 30.
//
// Each row is one bounded top-nn selection: a max-heap holds the nn best
// (distance, index) keys seen so far, one scan of the row replaces its
// root whenever a nearer city turns up, and a final in-place heapsort
// orders the survivors. That is Θ(n²) for the whole matrix at the usual
// nn ≪ n — most cities fail the single compare against the root — and
// O(n² log nn) at worst, never the Θ(n² log n) of sorting every row.
func (in *Instance) NNList(nn int) []int32 {
	n := in.n
	nn = in.EffectiveNN(nn)
	list := make([]int32, n*nn)
	if nn == 0 {
		return list
	}
	heap := make([]uint64, nn)
	for i := 0; i < n; i++ {
		row := in.matrix[i*n : (i+1)*n]
		k := 0
		for j, d := range row {
			if j == i {
				continue
			}
			key := nnKey(d, j)
			switch {
			case k < nn:
				heap[k] = key
				k++
				if k == nn {
					for r := nn/2 - 1; r >= 0; r-- {
						siftDown(heap, r)
					}
				}
			case key < heap[0]:
				heap[0] = key
				siftDown(heap, 0)
			}
		}
		for end := nn - 1; end > 0; end-- {
			heap[0], heap[end] = heap[end], heap[0]
			siftDown(heap[:end], 0)
		}
		out := list[i*nn : (i+1)*nn]
		for r, key := range heap {
			out[r] = int32(uint32(key))
		}
	}
	return list
}

// nnKey packs a (distance, city) pair into one key whose unsigned order is
// the NN-list order: distance first, then city index. Flipping the sign
// bit maps int32 order onto uint32 order. Cities are scanned in index
// order, so a later city at a distance equal to the heap's root has the
// larger key and is rejected — the same tie-break as the index order.
func nnKey(d int32, j int) uint64 {
	return uint64(uint32(d)^1<<31)<<32 | uint64(uint32(j))
}

// siftDown restores the max-heap property below node r of h.
func siftDown(h []uint64, r int) {
	for {
		c := 2*r + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[r] >= h[c] {
			return
		}
		h[r], h[c] = h[c], h[r]
		r = c
	}
}

// NearestNeighbourTour builds a greedy nearest-neighbour tour starting at
// city start, used to compute the initial pheromone level τ0 = m / C^nn as
// recommended by Dorigo & Stützle.
func (in *Instance) NearestNeighbourTour(start int) []int32 {
	n := in.n
	tour := make([]int32, 0, n)
	visited := make([]bool, n)
	cur := start
	tour = append(tour, int32(cur))
	visited[cur] = true
	for len(tour) < n {
		best := -1
		var bestD int32
		row := in.matrix[cur*n:]
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			if best < 0 || row[j] < bestD {
				best, bestD = j, row[j]
			}
		}
		cur = best
		visited[cur] = true
		tour = append(tour, int32(cur))
	}
	return tour
}
