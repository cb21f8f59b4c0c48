package geom

import "sort"

// Hilbert-curve sorting of 3D points: the space-filling-curve insertion
// order inside each round of delaunay's BRIO. Consecutive cells along the
// curve are always face-adjacent (Manhattan distance 1 on the cell grid),
// where a Z-order (Morton) curve takes long jumps at octant boundaries.
// That makes Hilbert insertion order strictly more local: the remembering
// walk in the incremental Delaunay build revisits the same cache-resident
// tets more often, which is what caps random-catalog build throughput.
//
// The curve is the one Skilling's transpose algorithm produces
// ("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004), evaluated
// as a finite-state machine instead of a bitwise sweep: the 3D curve has 24
// orientation states, and in a given state the octant a cell falls in at
// one level fixes both that level's 3-bit key digit and the state of the
// next level. hilbertStep is that automaton, derived mechanically from the
// transpose code (which survives as the oracle in hilbert_ref_test.go,
// where the table is re-derived and compared); hilbertPair composes it
// with itself so one lookup consumes two levels. 12 bits per axis (4096
// cells per side) is far below the 21 a 64-bit key has room for but is
// pure overkill removal, not a quality loss: keys only order points and
// tet barycenters, sets of at most ~2^21 elements in a 2^36-cell grid. Ties
// (distinct points in one cell, or exact duplicates) are broken
// deterministically by the callers.

const hilbertBits = 12

// hilbertStep[s][o] is digit<<5 | next for state s and octant
// o = xbit<<2 | ybit<<1 | zbit; state 0 is the top-level orientation.
var hilbertStep = [24][8]uint8{
	{0x01, 0x22, 0x63, 0x40, 0xe4, 0xc5, 0x86, 0xa0},
	{0x07, 0xe8, 0x29, 0xca, 0x6b, 0x82, 0x41, 0xa1},
	{0x06, 0x20, 0xec, 0xcd, 0x6e, 0x42, 0x81, 0xa2},
	{0xcf, 0x30, 0xa3, 0x43, 0xe9, 0x0a, 0x91, 0x60},
	{0x92, 0x65, 0xa4, 0x44, 0xef, 0x10, 0xc9, 0x2a},
	{0x93, 0xa5, 0x64, 0x45, 0xe3, 0xc0, 0x14, 0x2d},
	{0x09, 0xea, 0x71, 0x80, 0x27, 0xc8, 0x46, 0xa6},
	{0x00, 0x75, 0xed, 0x89, 0x26, 0x47, 0xcc, 0xa7},
	{0x96, 0xf1, 0x6a, 0x17, 0xa8, 0xc6, 0x48, 0x2c},
	{0x02, 0x6f, 0x21, 0x49, 0xe5, 0x87, 0xc4, 0xa9},
	{0x90, 0xeb, 0xaa, 0xc1, 0x68, 0x12, 0x4a, 0x24},
	{0xd1, 0xe6, 0x37, 0x0c, 0xab, 0x8e, 0x4b, 0x61},
	{0x97, 0x6d, 0xf5, 0x16, 0xac, 0x4c, 0xc7, 0x28},
	{0x94, 0xad, 0xee, 0xc2, 0x6c, 0x4d, 0x13, 0x25},
	{0xd5, 0x36, 0xe7, 0x08, 0xae, 0x4e, 0x8b, 0x62},
	{0xc3, 0xaf, 0x34, 0x4f, 0xe0, 0x95, 0x0d, 0x69},
	{0x50, 0x23, 0xb0, 0xd4, 0x76, 0x11, 0x8a, 0xf7},
	{0xcb, 0xe1, 0xb1, 0x83, 0x32, 0x04, 0x51, 0x66},
	{0x52, 0x73, 0xb2, 0x84, 0x31, 0x03, 0xd7, 0xf4},
	{0x53, 0xb3, 0x72, 0x85, 0x35, 0xd6, 0x0f, 0xf0},
	{0x54, 0xb4, 0x2f, 0xd0, 0x77, 0x8d, 0x15, 0xf6},
	{0xce, 0xb5, 0xe2, 0x8f, 0x33, 0x55, 0x05, 0x67},
	{0x56, 0x2e, 0x70, 0x0b, 0xb6, 0xd3, 0x88, 0xf2},
	{0x57, 0x74, 0x2b, 0x0e, 0xb7, 0x8c, 0xd2, 0xf3},
}

// hilbertPair is hilbertStep applied twice: indexed by state<<6 | two bits
// of x, y, z (x2<<4 | y2<<2 | z2, the more significant level in each
// pair's high bit), an entry is next<<6 | the two levels' six key bits, so
// the next state comes out already scaled to a row offset.
var hilbertPair = func() (tab [24 << 6]uint16) {
	for s := range hilbertStep {
		for i := 0; i < 64; i++ {
			hi := hilbertStep[s][i>>5&1<<2|i>>3&1<<1|i>>1&1]
			lo := hilbertStep[hi&31][i>>4&1<<2|i>>2&1<<1|i&1]
			tab[s<<6|i] = uint16(lo&31)<<6 | uint16(hi>>5)<<3 | uint16(lo>>5)
		}
	}
	return tab
}()

// HilbertKey returns the 36-bit Hilbert-curve index of p within the box b,
// using 12 bits per axis.
func HilbertKey(p Vec3, b AABB) uint64 {
	const maxv = (1 << hilbertBits) - 1
	size := b.Size()
	return hilbertFromCell(
		uint32(normCoord(p.X, b.Min.X, size.X, maxv)),
		uint32(normCoord(p.Y, b.Min.Y, size.Y, maxv)),
		uint32(normCoord(p.Z, b.Min.Z, size.Z, maxv)))
}

// normCoord maps x to its cell in [0, maxv] along an axis that starts at
// min and is size long, clamping points outside it; a zero-size axis is
// one cell.
func normCoord(x, min, size float64, maxv uint64) uint64 {
	if size <= 0 {
		return 0
	}
	f := (x - min) / size
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint64(f * float64(maxv))
}

// hilbertFromCell returns the Hilbert index of the integer cell (x, y, z),
// each coordinate below 2^hilbertBits.
func hilbertFromCell(x, y, z uint32) uint64 {
	var key uint64
	var s uint32
	for sh := hilbertBits - 2; sh >= 0; sh -= 2 {
		e := uint32(hilbertPair[s|(x>>sh&3)<<4|(y>>sh&3)<<2|z>>sh&3])
		key = key<<6 | uint64(e&63)
		s = e &^ 63
	}
	return key
}

// Sorting by Hilbert key packs each element into one word,
// key<<HilbertIndexBits | index: 36 key bits above a 28-bit index. An LSD
// radix pass over the key field alone is stable, so elements packed in
// ascending index order leave equal-key runs in ascending index order.
const (
	HilbertIndexBits = 64 - 3*hilbertBits
	HilbertIndexMask = 1<<HilbertIndexBits - 1
)

// maxHilbertWords is the largest element count whose indices fit a packed
// word; HilbertOrder comparison-sorts beyond it. A variable so that the
// tests reach that branch.
var maxHilbertWords = 1 << HilbertIndexBits

// SortHilbertWords sorts packed words by their key field (three counting
// passes, one 12-bit digit each), stably, using scratch — of the same
// length — as the second buffer. It returns whichever of the two buffers
// holds the sorted words; the other holds garbage.
func SortHilbertWords(words, scratch []uint64) []uint64 {
	const digit = 1<<hilbertBits - 1
	var count [3][digit + 1]uint32
	for _, w := range words {
		count[0][w>>HilbertIndexBits&digit]++
		count[1][w>>(HilbertIndexBits+hilbertBits)&digit]++
		count[2][w>>(HilbertIndexBits+2*hilbertBits)&digit]++
	}
	src, dst := words, scratch[:len(words)]
	for pass := range count {
		c := &count[pass]
		sum := uint32(0)
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		shift := HilbertIndexBits + uint(pass)*hilbertBits
		for _, w := range src {
			d := w >> shift & digit
			dst[c[d]] = w
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}

// HilbertOrder returns a permutation of indices [0,len(pts)) that visits
// the points in Hilbert-curve order over their bounding box, ties broken by
// ascending index (so duplicate points keep input order).
func HilbertOrder(pts []Vec3) []int {
	b := BoundsOf(pts)
	n := len(pts)
	order := make([]int, n)
	if n > maxHilbertWords {
		keys := make([]uint64, n)
		for i, p := range pts {
			keys[i] = HilbertKey(p, b)
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			ki, kj := keys[order[i]], keys[order[j]]
			if ki != kj {
				return ki < kj
			}
			return order[i] < order[j]
		})
		return order
	}
	buf := make([]uint64, 2*n)
	for i, p := range pts {
		buf[i] = HilbertKey(p, b)<<HilbertIndexBits | uint64(i)
	}
	for i, w := range SortHilbertWords(buf[:n], buf[n:]) {
		order[i] = int(w & HilbertIndexMask)
	}
	return order
}
