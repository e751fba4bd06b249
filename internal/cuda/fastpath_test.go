package cuda_test

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"antgpu/internal/cuda"
)

// treeRows are the rows every shared-memory tree test reduces: a spread of
// values, ties, -1 sentinels (visited cities in the construction kernel),
// an all-equal row, signed zeros and NaNs in both halves of the tree.
func treeRows(n int) [][]float32 {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	rows := make([][]float32, 8)
	for r := range rows {
		rows[r] = make([]float32, n)
	}
	x := uint32(12345)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		v := float32(x>>8) / float32(1<<24)
		rows[0][i] = v
		rows[1][i] = float32(i % 3) // ties everywhere
		rows[2][i] = -1
		if i%5 == 3 {
			rows[2][i] = v
		}
		rows[3][i] = 0.5
		rows[4][i] = 0
		if i%2 == 1 {
			rows[4][i] = negZero
		}
		rows[5][i] = v
		if i%7 == 0 || i == n-1 {
			rows[5][i] = nan
		}
		rows[6][i] = -1 // every city visited
		switch i % 4 {
		case 0:
			rows[7][i] = negZero
		case 1:
			rows[7][i] = v
		case 2:
			rows[7][i] = -1
		default:
			rows[7][i] = float32(math.Inf(1))
		}
	}
	return rows
}

// paddedRows returns the treeRows as they are (live n), then, for every
// live length below n that the tree tests sweep, each of them with
// vals[live:n) overwritten by one fill value, and each row's live length.
// The fills are -1 (the construction kernel's padding lanes), +0 and -0
// (against the signed zeros in the live prefix of rows 4 and 7) and 0.5
// (equal to every live value of row 3); rows 5 and 7 keep NaNs and +Inf
// in the live prefix.
func paddedRows(n int) ([][]float32, []int) {
	base := treeRows(n)
	rows := append([][]float32(nil), base...)
	lives := make([]int, len(base))
	for i := range lives {
		lives[i] = n
	}
	for _, live := range []int{0, 1, 16, 31, 32, 33, 44, 100} {
		if live >= n {
			continue
		}
		for _, fill := range []float32{-1, 0, float32(math.Copysign(0, -1)), 0.5} {
			for _, r := range base {
				row := append([]float32(nil), r...)
				for i := live; i < n; i++ {
					row[i] = fill
				}
				rows = append(rows, row)
				lives = append(lives, live)
			}
		}
	}
	return rows, lives
}

// treeKernel runs one tree variant per block over row LinearIdx() and
// copies the shared arrays out (unmetered) when the tree is done.
func treeKernel(rows [][]float32, n int, outV [][]float32, outI [][]int32,
	tree func(b *cuda.Block, vals []float32, idxs []int32)) cuda.Kernel {
	return func(b *cuda.Block) {
		r := b.LinearIdx()
		vals := b.SharedF32(n)
		idxs := b.SharedI32(n)
		copy(vals, rows[r])
		for i := range idxs {
			idxs[i] = int32(i*7 + 3)
		}
		tree(b, vals, idxs)
		outV[r] = append(outV[r][:0], vals...)
		outI[r] = append(outI[r][:0], idxs...)
	}
}

// treeOut is what one tree variant left behind: the launch meter and the
// raw words of every row's vals and idxs.
type treeOut struct {
	meter cuda.Meter
	words []uint32
}

func runTree(t *testing.T, dev *cuda.Device, threads, n int, serial bool, rows [][]float32,
	tree func(b *cuda.Block, vals []float32, idxs []int32)) treeOut {
	t.Helper()
	outV := make([][]float32, len(rows))
	outI := make([][]int32, len(rows))
	cfg := cuda.LaunchConfig{
		Grid:         cuda.D1(len(rows)),
		Block:        cuda.D1(threads),
		SharedBytes:  8 * n,
		SerialBlocks: serial,
	}
	res, err := cuda.Launch(dev, cfg, "tree", treeKernel(rows, n, outV, outI, tree))
	if err != nil {
		t.Fatal(err)
	}
	out := treeOut{meter: res.Meter}
	for r := range rows {
		out.words = append(out.words, f32bits(outV[r])...)
		out.words = append(out.words, i32bits(outI[r])...)
	}
	return out
}

// treeShapes returns the (tree size, block threads) pairs the tree tests
// sweep on dev: blocks smaller than the tree (at n/4 the top level has
// more slots than threads), exactly the tree, and blocks with more warps
// than the tree covers (one with a ragged tail warp).
func treeShapes(dev *cuda.Device) [][2]int {
	var shapes [][2]int
	for n := 32; n <= 1024; n *= 2 {
		seen := map[int]bool{}
		for _, threads := range []int{n / 4, n / 2, n, 2*n - 16, 2 * n} {
			threads = min(threads, dev.MaxThreadsPerBlock)
			if !seen[threads] {
				seen[threads] = true
				shapes = append(shapes, [2]int{n, threads})
			}
		}
	}
	return shapes
}

// assertTreesEqual runs the fused tree and its references over the rows
// of each tree size, on every shape, device and block schedule, and
// asserts == meters and identical words.
func assertTreesEqual(t *testing.T, rowsOf func(n int) [][]float32,
	fused func(n int) func(*cuda.Block, []float32, []int32),
	refs map[string]func(n int) func(*cuda.Block, []float32, []int32)) {
	t.Helper()
	for _, newDev := range []func() *cuda.Device{cuda.TeslaC1060, cuda.TeslaM2050} {
		for _, shape := range treeShapes(newDev()) {
			n, threads := shape[0], shape[1]
			rows := rowsOf(n)
			for _, serial := range []bool{true, false} {
				dev := newDev()
				name := fmt.Sprintf("%s/n=%d/threads=%d/serial=%v", dev.Name, n, threads, serial)
				got := runTree(t, dev, threads, n, serial, rows, fused(n))
				for refName, ref := range refs {
					want := runTree(t, newDev(), threads, n, serial, rows, ref(n))
					if got.meter != want.meter {
						t.Errorf("%s: meters differ from the %s loop\nfused: %+v\n%s: %+v",
							name, refName, got.meter, refName, want.meter)
					}
					for i := range want.words {
						if got.words[i] != want.words[i] {
							t.Errorf("%s: word %d differs from the %s loop: %#x vs %#x",
								name, i, refName, got.words[i], want.words[i])
							break
						}
					}
				}
			}
		}
	}
}

// TestReduceArgMaxSharedMatchesPerLevelLoops pins the fused argmax tree
// against the per-level RunWarps loop it replaces and against the scalar
// Run loop, the reference both stand for. The fused tree is told each
// row's live length; the references always run the whole tree, so a
// padded suffix must leave the same words and meters as a computed one.
func TestReduceArgMaxSharedMatchesPerLevelLoops(t *testing.T) {
	const charge = 1
	fused := func(n int) func(*cuda.Block, []float32, []int32) {
		_, lives := paddedRows(n)
		return func(b *cuda.Block, vals []float32, idxs []int32) {
			b.ReduceArgMaxShared(vals, idxs, n, lives[b.LinearIdx()], charge)
		}
	}
	warps := func(n int) func(*cuda.Block, []float32, []int32) {
		return func(b *cuda.Block, vals []float32, idxs []int32) {
			for s := n / 2; s > 0; s /= 2 {
				b.RunWarps(func(w *cuda.Warp) {
					part := w.MaskTo(s - w.Base())
					if part == 0 {
						return
					}
					var aV, cV [32]float32
					var iV [32]int32
					w.LdShF32Masked(vals, w.Base(), part, aV[:])
					w.LdShF32Masked(vals, w.Base()+s, part, cV[:])
					w.Charge(charge)
					var imp uint32
					for mk := part; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						if cV[l] > aV[l] {
							imp |= 1 << uint(l)
						}
					}
					w.StShF32Masked(vals, w.Base(), imp, cV[:])
					w.LdShI32Masked(idxs, w.Base()+s, imp, iV[:])
					w.StShI32Masked(idxs, w.Base(), imp, iV[:])
				})
				b.Sync()
			}
		}
	}
	scalar := func(n int) func(*cuda.Block, []float32, []int32) {
		return func(b *cuda.Block, vals []float32, idxs []int32) {
			for s := n / 2; s > 0; s /= 2 {
				b.Run(func(th *cuda.Thread) {
					if th.ID() < s {
						a := th.LdShF32(vals, th.ID())
						c := th.LdShF32(vals, th.ID()+s)
						th.Charge(charge)
						if c > a {
							th.StShF32(vals, th.ID(), c)
							th.StShI32(idxs, th.ID(), th.LdShI32(idxs, th.ID()+s))
						}
					}
				})
				b.Sync()
			}
		}
	}
	rows := func(n int) [][]float32 {
		r, _ := paddedRows(n)
		return r
	}
	assertTreesEqual(t, rows, fused, map[string]func(int) func(*cuda.Block, []float32, []int32){
		"RunWarps": warps, "Run": scalar,
	})
}

// TestReduceSumSharedMatchesPerLevelLoops does the same for the sum tree.
func TestReduceSumSharedMatchesPerLevelLoops(t *testing.T) {
	const charge = 1
	fused := func(n int) func(*cuda.Block, []float32, []int32) {
		return func(b *cuda.Block, vals []float32, _ []int32) {
			b.ReduceSumShared(vals, n, charge)
		}
	}
	warps := func(n int) func(*cuda.Block, []float32, []int32) {
		return func(b *cuda.Block, vals []float32, _ []int32) {
			for s := n / 2; s > 0; s /= 2 {
				b.RunWarps(func(w *cuda.Warp) {
					part := w.MaskTo(s - w.Base())
					if part == 0 {
						return
					}
					var aV, cV [32]float32
					w.LdShF32Masked(vals, w.Base(), part, aV[:])
					w.LdShF32Masked(vals, w.Base()+s, part, cV[:])
					for mk := part; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						aV[l] += cV[l]
					}
					w.StShF32Masked(vals, w.Base(), part, aV[:])
					w.Charge(charge)
				})
				b.Sync()
			}
		}
	}
	scalar := func(n int) func(*cuda.Block, []float32, []int32) {
		return func(b *cuda.Block, vals []float32, _ []int32) {
			for s := n / 2; s > 0; s /= 2 {
				b.Run(func(th *cuda.Thread) {
					if th.ID() < s {
						v := th.LdShF32(vals, th.ID()) + th.LdShF32(vals, th.ID()+s)
						th.StShF32(vals, th.ID(), v)
						th.Charge(charge)
					}
				})
				b.Sync()
			}
		}
	}
	assertTreesEqual(t, treeRows, fused, map[string]func(int) func(*cuda.Block, []float32, []int32){
		"RunWarps": warps, "Run": scalar,
	})
}

// maskedEnv is the state one masked-op case reads and writes: global
// buffers (the texture is bound over gF), shared arrays, and two lane
// register files, one per issued instruction.
type maskedEnv struct {
	gF   *cuda.F32
	gI   *cuda.I32
	tex  *cuda.Texture
	sF   []float32
	sI   []int32
	srcF [32]float32
	srcI [32]int32
	dF   [2][32]float32
	dI   [2][32]int32
}

const maskedElems = 128

func newMaskedEnv() *maskedEnv {
	e := &maskedEnv{gF: cuda.MallocF32("gF", maskedElems), gI: cuda.MallocI32("gI", maskedElems)}
	for i := range e.gF.Data() {
		e.gF.Data()[i] = float32(i)*0.25 + 1
		e.gI.Data()[i] = int32(i*3 + 1)
	}
	e.tex = cuda.BindTexture(e.gF)
	for l := 0; l < 32; l++ {
		e.srcF[l] = float32(1000 + l)
		e.srcI[l] = int32(2000 + l)
		for k := range e.dF {
			e.dF[k][l] = 12345
			e.dI[k][l] = 12345
		}
	}
	return e
}

func (e *maskedEnv) words() []uint32 {
	w := append(f32bits(e.gF.Data()), i32bits(e.gI.Data())...)
	w = append(w, f32bits(e.sF)...)
	w = append(w, i32bits(e.sI)...)
	for k := range e.dF {
		w = append(w, f32bits(e.dF[k][:])...)
		w = append(w, i32bits(e.dI[k][:])...)
	}
	return w
}

// maskedOp is one masked warp op and the scalar lane code it models. Each
// case issues it twice, the second time at base+next: loads overlap the
// first instruction so the texture probes see hits, stores do not, so the
// final words do not depend on the order of overlapping lanes.
type maskedOp struct {
	name   string
	next   int
	vector func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32)
	scalar func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32)
}

func inMask(mask uint32, l int) bool { return mask&(1<<uint(l)) != 0 }

// isRun reports whether a non-zero mask is one contiguous run of lanes.
func isRun(mask uint32) bool {
	r := mask >> uint(bits.TrailingZeros32(mask))
	return r&(r+1) == 0
}

var maskedOps = []maskedOp{
	{"TexF32Masked", 5,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.TexF32Masked(e.tex, base, mask, e.dF[k][:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				e.dF[k][l] = t.TexF32(e.tex, base+l)
			}
		}},
	{"LdF32Masked", 5,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.LdF32Masked(e.gF, base, mask, e.dF[k][:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				e.dF[k][l] = t.LdF32(e.gF, base+l)
			}
		}},
	{"StF32Masked", 37,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.StF32Masked(e.gF, base, mask, e.srcF[:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				t.StF32(e.gF, base+l, e.srcF[l])
			}
		}},
	{"LdI32Masked", 5,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.LdI32Masked(e.gI, base, mask, e.dI[k][:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				e.dI[k][l] = t.LdI32(e.gI, base+l)
			}
		}},
	{"StI32Masked", 37,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.StI32Masked(e.gI, base, mask, e.srcI[:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				t.StI32(e.gI, base+l, e.srcI[l])
			}
		}},
	{"LdShF32Masked", 5,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.LdShF32Masked(e.sF, base, mask, e.dF[k][:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				e.dF[k][l] = t.LdShF32(e.sF, base+l)
			}
		}},
	{"StShF32Masked", 37,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.StShF32Masked(e.sF, base, mask, e.srcF[:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				t.StShF32(e.sF, base+l, e.srcF[l])
			}
		}},
	{"LdShI32Masked", 5,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.LdShI32Masked(e.sI, base, mask, e.dI[k][:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				e.dI[k][l] = t.LdShI32(e.sI, base+l)
			}
		}},
	{"StShI32Masked", 37,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.StShI32Masked(e.sI, base, mask, e.srcI[:])
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				t.StShI32(e.sI, base+l, e.srcI[l])
			}
		}},
	// The merged store: lanes in mask store floats, the others ints, as the
	// data-parallel tile phase's in- and out-lanes do.
	{"StShF32I32Row", 37,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			w.StShF32I32Row(e.sF, e.srcF[:], mask, e.sI, e.srcI[:], ^mask, base)
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); inMask(mask, l) {
				t.StShF32(e.sF, base+l, e.srcF[l])
			} else {
				t.StShI32(e.sI, base+l, e.srcI[l])
			}
		}},
	// The padding-lane fill: a constant value, then consecutive indices.
	// It takes only contiguous masks, so masks with holes issue nothing on
	// either side.
	{"StShF32I32Fill", 37,
		func(w *cuda.Warp, e *maskedEnv, k, base int, mask uint32) {
			if isRun(mask) {
				w.StShF32I32Fill(e.sF, -1, e.sI, int32(base+3), base, mask)
			}
		},
		func(t *cuda.Thread, e *maskedEnv, k, base int, mask uint32) {
			if l := t.Lane(); isRun(mask) && inMask(mask, l) {
				t.StShF32(e.sF, base+l, -1)
				t.StShI32(e.sI, base+l, int32(base+3+l))
			}
		}},
}

// testMasks are every prefix mask of 1..32 lanes, then masks the
// contiguous-run path takes though they are not prefixes (a single high
// lane, a suffix, a middle run) and masks with holes it must leave to the
// per-lane loop.
func testMasks() []uint32 {
	var masks []uint32
	for k := 1; k <= 32; k++ {
		masks = append(masks, uint32(uint64(1)<<uint(k)-1))
	}
	return append(masks,
		1<<31, 1<<17, 0xFFFF0000, 0xFFFFFFFE, 0x00FFFF00,
		0b1011, 0b1101, 0x80000001, 0x55555555, 0xF0F0F0F0, 0x7FFFFFFD)
}

// TestMaskedOpsMatchScalar pins every masked op with a contiguous-run fast
// path against the scalar Thread code it models, for every test mask at odd
// bases that straddle a texture line: == meters and identical words in
// every buffer, shared array and lane register.
func TestMaskedOpsMatchScalar(t *testing.T) {
	run := func(dev *cuda.Device, k cuda.Kernel) cuda.Meter {
		cfg := cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(32), SharedBytes: 8 * maskedElems}
		res, err := cuda.Launch(dev, cfg, "masked", k)
		if err != nil {
			t.Fatal(err)
		}
		return res.Meter
	}
	withShared := func(e *maskedEnv, phase func(b *cuda.Block)) cuda.Kernel {
		return func(b *cuda.Block) {
			e.sF, e.sI = b.SharedF32(maskedElems), b.SharedI32(maskedElems)
			for i := range e.sF {
				e.sF[i] = -float32(i)
				e.sI[i] = -int32(i) - 1
			}
			phase(b)
		}
	}
	for _, newDev := range []func() *cuda.Device{cuda.TeslaC1060, cuda.TeslaM2050} {
		for _, op := range maskedOps {
			for _, mask := range testMasks() {
				for _, base := range []int{1, 7, 13, 29} {
					op, mask, base := op, mask, base
					se, ve := newMaskedEnv(), newMaskedEnv()
					sm := run(newDev(), withShared(se, func(b *cuda.Block) {
						b.Run(func(th *cuda.Thread) {
							op.scalar(th, se, 0, base, mask)
							op.scalar(th, se, 1, base+op.next, mask)
						})
					}))
					vm := run(newDev(), withShared(ve, func(b *cuda.Block) {
						b.RunWarps(func(w *cuda.Warp) {
							op.vector(w, ve, 0, base, mask)
							op.vector(w, ve, 1, base+op.next, mask)
						})
					}))
					name := fmt.Sprintf("%s/%s/mask=%#x/base=%d", newDev().Name, op.name, mask, base)
					if sm != vm {
						t.Errorf("%s: meters differ\nscalar: %+v\nvector: %+v", name, sm, vm)
					}
					sw, vw := se.words(), ve.words()
					for i := range sw {
						if sw[i] != vw[i] {
							t.Errorf("%s: word %d differs: %#x vs %#x", name, i, sw[i], vw[i])
							break
						}
					}
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPhasesDoNotAllocate guards the per-block phase handles: a kernel that
// runs 1000 RunWarps and 1000 Run phases per block, each RunWarps phase a
// padding-lane fill and each followed by an argmax tree over a ragged
// tail, must allocate no more per launch than the same kernel with 10 of
// each.
func TestPhasesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops pooled blocks at random, so allocations per launch vary")
	}
	const threads, live = 64, 24
	dev := cuda.TeslaM2050()
	cfg := cuda.LaunchConfig{Grid: cuda.D1(2), Block: cuda.D1(threads), SharedBytes: 8 * threads, SerialBlocks: true}
	allocs := func(phases int) float64 {
		k := func(b *cuda.Block) {
			vals := b.SharedF32(threads)
			idxs := b.SharedI32(threads)
			for i := 0; i < phases; i++ {
				b.RunWarps(func(w *cuda.Warp) {
					w.Charge(1)
					w.StShF32I32Fill(vals, -1, idxs, int32(w.Base()), w.Base(), w.Mask()&^w.MaskTo(live-w.Base()))
				})
				b.ReduceArgMaxShared(vals, idxs, threads, live, 1)
				b.Run(func(th *cuda.Thread) { th.Charge(1) })
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := cuda.Launch(dev, cfg, "phases", k); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(1000)
	if many > few {
		t.Errorf("1000 phases per block allocate %.1f times per launch, 10 phases %.1f: phases allocate", many, few)
	}
}
