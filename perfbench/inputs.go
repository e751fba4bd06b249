package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"antgpu/internal/tsp"
)

// Every instance a workload solves comes from tsp.Generate with a generator
// seed that mixes the workload seed, a stream name and the op index, and is
// handed to the program as TSPLIB text: the program under test only ever
// sees those bytes.

// mix folds the words through SplitMix64's finaliser, so neighbouring
// workload seeds and op indices give unrelated generator seeds.
func mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		z := h ^ w + 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		h = z ^ z>>31
	}
	return h
}

// tag turns a stream name into a mix word.
func tag(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// solverSeed derives a non-zero solver seed (zero would select the
// library default) from the workload seed and the request identity.
func solverSeed(words ...uint64) uint64 { return mix(words...) | 1 }

// input is one generated instance: the instance itself, which the
// benchmark keeps to check tours, and the TSPLIB bytes the program gets.
type input struct {
	in     *tsp.Instance
	tsplib []byte
}

// generate builds the op-th instance of a stream: n uniform EUC_2D cities.
func generate(seed uint64, stream string, op, n int) (input, error) {
	in, err := tsp.Generate(tsp.GenSpec{
		Name:  fmt.Sprintf("%s-%d", stream, op),
		N:     n,
		Type:  tsp.Euc2D,
		Seed:  mix(seed, tag(stream), uint64(op)),
		Width: 16000,
	})
	if err != nil {
		return input{}, fmt.Errorf("generate %s op %d: %w", stream, op, err)
	}
	var buf bytes.Buffer
	if err := tsp.Write(&buf, in); err != nil {
		return input{}, fmt.Errorf("write %s op %d: %w", stream, op, err)
	}
	return input{in: in, tsplib: buf.Bytes()}, nil
}
