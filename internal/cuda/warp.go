package cuda

import (
	"math"
	"math/bits"
)

// Warp is the kernel-side handle to one warp within a RunWarps phase: the
// vector fast path of the simulator. Where a Run phase executes the closure
// once per thread and recovers warp instructions by positionally realigning
// 32 per-lane record streams, a RunWarps phase executes once per warp and
// each Warp op meters one whole warp instruction analytically — transaction
// counts, bank conflicts and texture-line hits are computed in closed form
// (or a single <=32-iteration pass) from the (base, stride, mask) triple.
//
// The two paths are meter-equivalent by construction: every op documents the
// scalar access pattern it models, and the equivalence tests in warp_test.go
// and internal/core assert identical Meter structs and byte-identical
// buffers for every ported kernel. Kernels with data-dependent control flow
// per lane (divergent scans, early exits) stay on the scalar path; the
// analytic metering is exact only when the warp's accesses are expressible
// as rows, strides, broadcasts or explicit per-lane index vectors.
//
// Lane-indexed slice arguments (dst, src, idxs, vals) are indexed by lane
// [0, 32) and must be at least as long as the highest set mask bit + 1. A
// masked op with mask 0 issues nothing and meters nothing, so kernels can
// pass conditionally-empty masks without branching.
type Warp struct {
	b      *Block
	id     int    // warp index within block
	base   int    // first thread id of the warp
	active int    // live lanes (threads may not fill the last warp)
	mask   uint32 // bit per live lane; live lanes are always a prefix
}

// Block returns the enclosing block handle.
func (w *Warp) Block() *Block { return w.b }

// ID returns the warp index within the block.
func (w *Warp) ID() int { return w.id }

// Base returns the linear thread id of the warp's lane 0.
func (w *Warp) Base() int { return w.base }

// Active returns the number of live lanes in the warp.
func (w *Warp) Active() int { return w.active }

// Mask returns the live-lane mask (a prefix mask of Active bits).
func (w *Warp) Mask() uint32 { return w.mask }

// MaskTo returns the mask of the first n live lanes (n is clamped to the
// active count). Because live lanes form a prefix, this is the mask of
// threads with id < Base()+n.
func (w *Warp) MaskTo(n int) uint32 {
	if n >= w.active {
		return w.mask
	}
	if n <= 0 {
		return 0
	}
	return 1<<uint(n) - 1
}

// Charge accounts n warp instruction issues of arithmetic. It is the warp
// analogue of Thread.Charge: the scalar path issues the maximum of the
// per-lane charges, so a vector kernel must pass that maximum itself (for a
// divergent phase, the cost of the slowest lane's path).
func (w *Warp) Charge(n float64) { w.b.meter.ComputeIssues += n }

// Diverge charges extra issues caused by intra-warp divergence, mirroring
// Thread.Diverge.
func (w *Warp) Diverge(extraIssues float64) { w.b.meter.DivergentExtra += extraIssues }

// RunWarps executes one warp-granular phase over all warps of the block, the
// vector counterpart of Block.Run. The closure receives each warp once; the
// *Warp is only valid for the duration of the call. Scalar Run phases and
// vector RunWarps phases may be mixed freely within one kernel. Every warp
// of every RunWarps phase of the block is handed the same handle.
func (b *Block) RunWarps(f func(w *Warp)) {
	ws := b.dev.WarpSize
	if ws > 32 {
		panic("cuda: RunWarps requires WarpSize <= 32 (lane masks are uint32)")
	}
	b.meter.RunPhases++
	w := &b.warp
	w.b = b
	for wi := 0; wi < b.warps; wi++ {
		base := wi * ws
		active := b.threads - base
		if active > ws {
			active = ws
		}
		w.id = wi
		w.base = base
		w.active = active
		if active >= 32 {
			w.mask = ^uint32(0)
		} else {
			w.mask = 1<<uint(active) - 1
		}
		f(w)
		b.meter.LaneOps += int64(active)
	}
}

// --- block-level shared-memory trees ----------------------------------------

// ReduceArgMaxShared runs the shared-memory argmax tree of a block over
// vals[0:n) and idxs[0:n), n a power of two: at each level s = n/2, ..., 1
// every thread tid < s takes (vals[tid+s], idxs[tid+s]) when
// vals[tid+s] > vals[tid], then the block syncs. The winner ends in slot 0;
// ties, NaNs and -0 against +0 keep the lower slot, as the strict compare
// does on the device.
//
// live is the length of the prefix that holds real candidates: the caller
// guarantees that vals[live:n) all hold one non-NaN value (padding lanes
// past the last city, for example), and passes n when there is no such
// suffix. A lane whose two operands both lie in that suffix compares equal
// values, so it can never take the strict > and its slot keeps the fill.
// The tree therefore computes only the lanes below min(live, s) at each
// level, after which the live prefix is min(live, s). The meters do not
// depend on live: padding lanes still issue and meter their loads.
//
// It is the fused form of the per-level vector loop
//
//	for s := n / 2; s > 0; s /= 2 {
//		b.RunWarps(func(w *Warp) {
//			part := w.MaskTo(s - w.Base()) // lanes with tid < s
//			if part == 0 {
//				return
//			}
//			w.LdShF32Masked(vals, w.Base(), part, a)
//			w.LdShF32Masked(vals, w.Base()+s, part, c)
//			w.Charge(charge)
//			// imp: the lanes of part with c[l] > a[l]
//			w.StShF32Masked(vals, w.Base(), imp, c)
//			w.LdShI32Masked(idxs, w.Base()+s, imp, i)
//			w.StShI32Masked(idxs, w.Base(), imp, i)
//		})
//		b.Sync()
//	}
//
// and meters exactly what that loop meters: per level one run phase, every
// warp's lane ops and the barrier; per warp with lanes below s two shared
// loads and charge, plus three shared ops if any of its lanes improved.
// Only the warps below s are visited; the others meter nothing but lanes.
func (b *Block) ReduceArgMaxShared(vals []float32, idxs []int32, n, live int, charge float64) {
	ws := b.dev.WarpSize
	m := b.meter
	for s := n / 2; s > 0; s /= 2 {
		m.RunPhases++
		hi := min(s, b.threads)
		act := min(live, hi) // lanes below act may improve; the rest cannot
		for base := 0; base < hi; base += ws {
			end := min(base+ws, hi)
			m.SharedInstr += 2
			m.SharedOps += 2 * int64(end-base)
			m.ComputeIssues += charge
			if base >= act {
				continue
			}
			cend := min(end, act)
			improved := argmaxLanes(vals[base:cend], vals[base+s:cend+s], idxs[base:cend], idxs[base+s:cend+s])
			if improved > 0 {
				m.SharedInstr += 3
				m.SharedOps += 3 * int64(improved)
			}
		}
		m.LaneOps += int64(b.threads)
		b.Sync()
		live = min(live, s)
	}
}

// argmaxLanes is one warp's compare-and-select of an argmax tree level:
// each lane i takes (up[i], ui[i]) when up[i] > lo[i]. It returns the
// number of lanes that took it.
func argmaxLanes(lo, up []float32, li, ui []int32) int {
	up, li, ui = up[:len(lo)], li[:len(lo)], ui[:len(lo)]
	improved := 0
	for i, a := range lo {
		// Branch-free select: on random tile values the compare goes
		// either way about half the time.
		c := up[i]
		var imp uint32
		if c > a {
			imp = 1
		}
		sel := -imp
		ab := math.Float32bits(a)
		lo[i] = math.Float32frombits(ab ^ (ab^math.Float32bits(c))&sel)
		li[i] ^= (li[i] ^ ui[i]) & int32(sel)
		improved += int(imp)
	}
	return improved
}

// ReduceSumShared is the sum twin of ReduceArgMaxShared: at each level every
// thread tid < s sets vals[tid] += vals[tid+s], metered as two shared loads,
// one shared store and charge per warp with lanes below s, with the same
// per-level phase, lane and barrier accounting. The float32 additions happen
// in the device order, so the total is bit-identical to the per-level loop.
func (b *Block) ReduceSumShared(vals []float32, n int, charge float64) {
	ws := b.dev.WarpSize
	m := b.meter
	for s := n / 2; s > 0; s /= 2 {
		m.RunPhases++
		hi := min(s, b.threads)
		for base := 0; base < hi; base += ws {
			end := min(base+ws, hi)
			for i := base; i < end; i++ {
				vals[i] += vals[i+s]
			}
			m.SharedInstr += 3
			m.SharedOps += 3 * int64(end-base)
			m.ComputeIssues += charge
		}
		m.LaneOps += int64(b.threads)
		b.Sync()
	}
}

// --- metering helpers -------------------------------------------------------

func (b *Block) meterGlobalLoad(tx, ops int) {
	b.meter.GlobalLoadInstr++
	b.meter.GlobalLoadTx += int64(tx)
	b.meter.GlobalLoadOps += int64(ops)
}

func (b *Block) meterGlobalStore(tx, ops int) {
	b.meter.GlobalStoreInst++
	b.meter.GlobalStoreTx += int64(tx)
	b.meter.GlobalStoreOps += int64(ops)
}

func (b *Block) meterShared(ops int) {
	b.meter.SharedInstr++
	b.meter.SharedOps += int64(ops)
}

// rowTx is the closed-form transaction count of a dense row access: count
// consecutive elements starting at base.
func rowTx(base, count int, elemBytes, segBytes int64) int {
	first := int64(base) * elemBytes / segBytes
	last := (int64(base) + int64(count) - 1) * elemBytes / segBytes
	return int(last - first + 1)
}

// maskedRowTx counts the distinct segments of a masked row access. A
// contiguous run of lanes is a dense row, so the closed form applies.
// Otherwise skipped lanes may skip whole segments; the addresses are
// monotone in lane order, so consecutive dedup suffices.
func maskedRowTx(base int, mask uint32, elemBytes, segBytes int64) int {
	if lo, hi, ok := laneRun(mask); ok {
		return rowTx(base+lo, hi-lo, elemBytes, segBytes)
	}
	tx := 0
	prev := int64(-1)
	first := true
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		seg := (int64(base) + int64(l)) * elemBytes / segBytes
		if first || seg != prev {
			tx++
			prev = seg
			first = false
		}
	}
	return tx
}

// stridedTx counts the distinct segments of a strided access
// (lane l touches base + l*stride). The address sequence is monotone for any
// fixed stride, so consecutive dedup counts distinct segments exactly.
func stridedTx(base, stride int, mask uint32, elemBytes, segBytes int64) int {
	tx := 0
	prev := int64(-1)
	first := true
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		seg := (int64(base) + int64(l)*int64(stride)) * elemBytes / segBytes
		if first || seg != prev {
			tx++
			prev = seg
			first = false
		}
	}
	return tx
}

// gatherTx counts the distinct segments of an arbitrary per-lane index
// vector, matching the scalar path's countSegments dedup.
// laneSet is a 64-slot stack hash set for counting distinct per-lane values
// (at most 32 per warp, so the load factor never exceeds 1/2). The used
// bitmask gates slot validity, so insertion clears nothing.
type laneSet struct {
	keys [64]int64
	used uint64
}

func (s *laneSet) insert(v int64) bool {
	h := uint64(v) * 0x9e3779b97f4a7c15
	i := (h ^ h>>32) & 63
	for s.used&(1<<i) != 0 {
		if s.keys[i] == v {
			return false
		}
		i = (i + 1) & 63
	}
	s.used |= 1 << i
	s.keys[i] = v
	return true
}

func (b *Block) gatherTx(idxs []int32, mask uint32, elemBytes, segBytes int64) int {
	var set laneSet
	n := 0
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		if set.insert(int64(idxs[l]) * elemBytes / segBytes) {
			n++
		}
	}
	return n
}

func (b *Block) segBytes() int64 { return int64(b.dev.SegmentBytes) }

// laneRun reports whether the lanes of a non-zero mask form one contiguous
// run [lo, hi) — a prefix mask such as a tail warp's or MaskTo's, a suffix,
// or a single lane — and returns it. Masked ops take a copy-based path for
// such masks: the run is exactly the lanes a per-lane loop visits, in the
// same ascending order with no holes, so the copy writes the same words and
// the closed-form meters equal the per-lane ones.
func laneRun(mask uint32) (lo, hi int, ok bool) {
	lo = bits.TrailingZeros32(mask)
	r := mask >> uint(lo)
	return lo, lo + bits.OnesCount32(r), r&(r+1) == 0
}

// loadLanes reads s[base+l] into dst[l] for the lanes of a non-zero mask:
// one copy for a contiguous run, a per-lane loop otherwise. It meters
// nothing; the masked ops meter and then call it.
func loadLanes[T float32 | int32](dst, s []T, base int, mask uint32) {
	if lo, hi, ok := laneRun(mask); ok {
		copy(dst[lo:hi], s[base+lo:base+hi])
		return
	}
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = s[base+l]
	}
}

// storeLanes is loadLanes' store twin: it writes src[l] to s[base+l] for
// the lanes in mask (0 allowed).
func storeLanes[T float32 | int32](s []T, base int, mask uint32, src []T) {
	if mask == 0 {
		return
	}
	if lo, hi, ok := laneRun(mask); ok {
		copy(s[base+lo:base+hi], src[lo:hi])
		return
	}
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		s[base+l] = src[l]
	}
}

// --- global memory: rows ----------------------------------------------------

// LdF32Masked loads buf[base+l] into dst[l] for the lanes in mask: one
// global load instruction, transactions counted in closed form. Models each
// lane executing t.LdF32(buf, base+t.Lane()).
func (w *Warp) LdF32Masked(buf *F32, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	loadLanes(dst, buf.data, base, mask)
}

// StF32Masked stores src[l] to buf[base+l] for the lanes in mask.
func (w *Warp) StF32Masked(buf *F32, base int, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	storeLanes(buf.data, base, mask, src)
}

// LdI32Row loads buf[base+l] into dst[l] for every live lane.
func (w *Warp) LdI32Row(buf *I32, base int, dst []int32) {
	b := w.b
	b.meterGlobalLoad(rowTx(base, w.active, 4, b.segBytes()), w.active)
	copy(dst[:w.active], buf.data[base:base+w.active])
}

// LdI32Masked is LdI32Row restricted to the lanes in mask.
func (w *Warp) LdI32Masked(buf *I32, base int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	loadLanes(dst, buf.data, base, mask)
}

// StI32Masked stores src[l] to buf[base+l] for the lanes in mask.
func (w *Warp) StI32Masked(buf *I32, base int, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	storeLanes(buf.data, base, mask, src)
}

// --- global memory: strides, broadcasts, gathers ----------------------------

// LdI32Strided loads buf[base+l*stride] into dst[l] for the lanes in mask.
func (w *Warp) LdI32Strided(buf *I32, base, stride int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(stridedTx(base, stride, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[base+l*stride]
	}
}

// LdF32BcastMasked models the lanes in mask loading the same element: one
// instruction, one transaction (a single segment), one op per lane. With
// mask 0 it issues nothing and returns 0.
func (w *Warp) LdF32BcastMasked(buf *F32, idx int, mask uint32) float32 {
	if mask == 0 {
		return 0
	}
	w.b.meterGlobalLoad(1, bits.OnesCount32(mask))
	return buf.data[idx]
}

// LdI32BcastMasked models the lanes in mask loading the same element.
func (w *Warp) LdI32BcastMasked(buf *I32, idx int, mask uint32) int32 {
	if mask == 0 {
		return 0
	}
	w.b.meterGlobalLoad(1, bits.OnesCount32(mask))
	return buf.data[idx]
}

// LdF32Gather loads buf[idxs[l]] into dst[l] for the lanes in mask, with
// transactions counted by full segment dedup (arbitrary index vectors are
// not monotone).
func (w *Warp) LdF32Gather(buf *F32, idxs []int32, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[idxs[l]]
	}
}

// LdI32Gather loads buf[idxs[l]] into dst[l] for the lanes in mask.
func (w *Warp) LdI32Gather(buf *I32, idxs []int32, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[idxs[l]]
	}
}

// StF32Scatter stores src[l] to buf[idxs[l]] for the lanes in mask. Lanes
// scattering to the same index apply in ascending lane order, matching the
// scalar path's lane loop.
func (w *Warp) StF32Scatter(buf *F32, idxs []int32, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		buf.data[idxs[l]] = src[l]
	}
}

// StI32Scatter stores src[l] to buf[idxs[l]] for the lanes in mask.
func (w *Warp) StI32Scatter(buf *I32, idxs []int32, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		buf.data[idxs[l]] = src[l]
	}
}

// --- atomics ----------------------------------------------------------------

// AtomicAddF32Scatter adds vals[l] to buf[idxs[l]] for the lanes in mask:
// the scatter pheromone deposit. Conflicting lanes (same index) serialise —
// the extra is ops minus distinct addresses, matching atomicConflicts — and
// apply in ascending lane order so float sums stay bit-identical to the
// scalar lane loop.
func (w *Warp) AtomicAddF32Scatter(buf *F32, idxs []int32, mask uint32, vals []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	m := b.meter
	ops := bits.OnesCount32(mask)
	m.AtomicInstr++
	m.AtomicOps += int64(ops)
	tx := b.gatherTx(idxs, mask, 4, b.segBytes())
	m.GlobalLoadTx += int64(tx)
	m.GlobalStoreTx += int64(tx)
	var set laneSet
	distinct := 0
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		i := int(idxs[l])
		if set.insert(int64(i)) {
			distinct++
		}
		mu := buf.lock.of(i)
		mu.Lock()
		buf.data[i] += vals[l]
		mu.Unlock()
		b.noteAtomic(atomicKey(buf.id, i))
	}
	m.AtomicSerialExtra += float64(ops - distinct)
}

// --- texture ----------------------------------------------------------------

// TexF32Masked fetches tex[base+l] into dst[l] for the lanes in mask
// through the per-block texture tag cache. Distinct lines probe the tag
// cache in ascending lane order, exactly the scalar retirement's probe
// sequence, so hits and misses are identical. A contiguous run of lanes
// touches every line between its first and last lane's (a line holds at
// least one float), so it probes that line range in ascending order
// without a per-lane pass.
func (w *Warp) TexF32Masked(tex *Texture, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	m := b.meter
	m.TexInstr++
	tc := b.texCache(tex.buf.id)
	lineBytes := int64(b.dev.TextureLineBytes)
	if lo, hi, ok := laneRun(mask); ok {
		copy(dst[lo:hi], tex.buf.data[base+lo:base+hi])
		missed := false
		last := int64(base+hi-1) * 4 / lineBytes
		for line := int64(base+lo) * 4 / lineBytes; line <= last; line++ {
			if tc.probe(line) {
				m.TexHits++
			} else {
				m.TexMisses++
				missed = true
			}
		}
		m.TexFetches += int64(hi - lo)
		if missed {
			m.TexMissInstr++
		}
		return
	}
	prev := int64(-1)
	firstLine := true
	missed := false
	n := 0
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		idx := base + l
		dst[l] = tex.buf.data[idx]
		n++
		line := int64(idx) * 4 / lineBytes
		if !firstLine && line == prev {
			continue
		}
		firstLine = false
		prev = line
		if tc.probe(line) {
			m.TexHits++
		} else {
			m.TexMisses++
			missed = true
		}
	}
	m.TexFetches += int64(n)
	if missed {
		m.TexMissInstr++
	}
}

// --- shared memory ----------------------------------------------------------
//
// Row and broadcast patterns over <= 32 consecutive (or identical) element
// indices touch each bank at most once, so none of these ops can bank
// conflict; they mirror the scalar bankConflictDegree <= 1 outcome exactly.

// LdShF32Masked loads s[base+l] into dst[l] for the lanes in mask.
func (w *Warp) LdShF32Masked(s []float32, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	loadLanes(dst, s, base, mask)
}

// StShF32Masked stores src[l] to s[base+l] for the lanes in mask.
func (w *Warp) StShF32Masked(s []float32, base int, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	storeLanes(s, base, mask, src)
}

// LdShI32Masked loads s[base+l] into dst[l] for the lanes in mask.
func (w *Warp) LdShI32Masked(s []int32, base int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	loadLanes(dst, s, base, mask)
}

// StShI32Row stores src[l] to s[base+l] for every live lane.
func (w *Warp) StShI32Row(s []int32, base int, src []int32) {
	w.b.meterShared(w.active)
	copy(s[base:base+w.active], src[:w.active])
}

// StShI32Masked is StShI32Row restricted to the lanes in mask.
func (w *Warp) StShI32Masked(s []int32, base int, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	storeLanes(s, base, mask, src)
}

// LdShF32BcastMasked models the lanes in mask reading the same shared
// element: a hardware broadcast, one instruction, no conflicts. With mask 0
// it issues nothing and returns 0.
func (w *Warp) LdShF32BcastMasked(s []float32, idx int, mask uint32) float32 {
	if mask == 0 {
		return 0
	}
	w.b.meterShared(bits.OnesCount32(mask))
	return s[idx]
}

// LdShI32Bcast models every live lane reading the same shared element.
func (w *Warp) LdShI32Bcast(s []int32, idx int) int32 {
	w.b.meterShared(w.active)
	return s[idx]
}

// LdShI32BcastMasked is LdShI32Bcast restricted to the lanes in mask.
func (w *Warp) LdShI32BcastMasked(s []int32, idx int, mask uint32) int32 {
	if mask == 0 {
		return 0
	}
	w.b.meterShared(bits.OnesCount32(mask))
	return s[idx]
}

// StShF32I32Row issues ONE shared-store warp instruction whose lanes write
// two different shared arrays at their own index: lanes in maskF store
// vf[l] to sf[base+l], lanes in maskI store vi[l] to si[base+l]. The masks
// must be disjoint.
//
// This exists because the scalar path's positional retirement merges
// divergent stores to different shared arrays into a single instruction
// (shared arrays all carry the same pseudo buffer id, and banks depend only
// on the element index). A kernel whose if- and else-branches store to
// different arrays at the same stream position retires as one instruction
// covering all 32 lanes; a vector port must reproduce that instruction
// count or the meters drift. Addresses base+l are distinct per lane, so the
// merged instruction cannot bank conflict, as in the scalar model.
func (w *Warp) StShF32I32Row(sf []float32, vf []float32, maskF uint32, si []int32, vi []int32, maskI uint32, base int) {
	both := maskF | maskI
	if both == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(both))
	storeLanes(sf, base, maskF, vf)
	storeLanes(si, base, maskI, vi)
}

// StShF32I32Fill issues the two shared stores of lanes that carry a
// constant rather than a computed value, such as the padding lanes past
// the last city of a tile: lanes in mask store v to sf[base+l], then
// first+l to si[base+l]. mask must be one contiguous run of lanes, as a
// warp's own w.Mask() is. It meters exactly what StShF32Masked followed by
// StShI32Masked over mask meter, two shared instructions of one op per
// lane, and writes the words directly instead of staging them in lane
// registers.
func (w *Warp) StShF32I32Fill(sf []float32, v float32, si []int32, first int32, base int, mask uint32) {
	if mask == 0 {
		return
	}
	lo, hi, ok := laneRun(mask)
	if !ok {
		panic("cuda: StShF32I32Fill needs a contiguous lane mask")
	}
	w.b.meterShared(hi - lo)
	w.b.meterShared(hi - lo)
	fs, is := sf[base+lo:base+hi], si[base+lo:base+hi]
	is = is[:len(fs)]
	x := first + int32(lo)
	for i := range fs {
		fs[i], is[i] = v, x
		x++
	}
}
