package congest

import "math/bits"

// wakeSet is a set of the vertices [lo, hi) of one shard, read back in
// ascending order without a sort: one bit per vertex, plus one summary
// bit per word that marks the words holding a member, so reading a
// sparse set skips empty stretches 4,096 vertices at a time. Ascending
// order is worth keeping: it is allocation order, so a round touches
// the vertices' records in the order they sit in memory.
type wakeSet struct {
	lo    int
	n     int      // members
	words []uint64 // bit v-lo
	sum   []uint64 // bit j of sum[i] is set iff words[64i+j] != 0
}

func newWakeSet(lo, hi int) wakeSet {
	words := (hi - lo + 63) / 64
	return wakeSet{lo: lo, words: make([]uint64, words), sum: make([]uint64, (words+63)/64)}
}

// add inserts v; a vertex added twice is a member, and counted, once.
func (w *wakeSet) add(v int) {
	x := v - w.lo
	i, bit := x>>6, uint64(1)<<(x&63)
	if w.words[i]&bit == 0 {
		w.words[i] |= bit
		w.sum[i>>6] |= 1 << (i & 63)
		w.n++
	}
}

// drain yields the members in ascending order, removing each as it
// goes; members added meanwhile may be missed. It is an iter.Seq: if
// yield returns false, drain stops and the members not yet yielded
// stay in the set.
func (w *wakeSet) drain(yield func(int) bool) {
	for si, s := range w.sum {
		for ; s != 0; s &= s - 1 {
			i := si<<6 | bits.TrailingZeros64(s)
			word := w.words[i]
			w.words[i] = 0
			for ; word != 0; word &= word - 1 {
				w.n--
				if !yield(w.lo + (i<<6 | bits.TrailingZeros64(word))) {
					if w.words[i] = word & (word - 1); w.words[i] == 0 {
						s &= s - 1
					}
					w.sum[si] = s
					return
				}
			}
		}
		w.sum[si] = 0
	}
}

// nearest returns the least non-negative dist[v-lo] over the members,
// or -1 when no member has one. It leaves the set as it is.
func (w *wakeSet) nearest(dist []int32) int32 {
	best := int32(-1)
	for si, s := range w.sum {
		for ; s != 0; s &= s - 1 {
			i := si<<6 | bits.TrailingZeros64(s)
			for word := w.words[i]; word != 0; word &= word - 1 {
				d := dist[i<<6|bits.TrailingZeros64(word)]
				if d == 0 {
					return 0
				}
				if d > 0 && (best < 0 || d < best) {
					best = d
				}
			}
		}
	}
	return best
}
