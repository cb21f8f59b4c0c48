package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference implementations the table-driven key and the radix order
// replaced, kept as oracles: Skilling's transpose algorithm ("Programming
// the Hilbert curve", AIP Conf. Proc. 707, 2004) and the comparison sort
// over an indirect key array.

// skillingKey returns the Hilbert index of the integer cell x (each
// component < 2^bits) on the 2^bits-per-side grid: the cell is converted
// in place from axis form to the "transpose" form of the index by a
// bitwise Gray-code/exchange sweep, then the transpose bits are
// interleaved, most significant level first.
func skillingKey(x [3]uint32, bits uint) uint64 {
	axesToTranspose(&x, bits)
	var key uint64
	for b := int(bits) - 1; b >= 0; b-- {
		key = key<<1 | uint64(x[0]>>uint(b)&1)
		key = key<<1 | uint64(x[1]>>uint(b)&1)
		key = key<<1 | uint64(x[2]>>uint(b)&1)
	}
	return key
}

// axesToTranspose is Skilling's AxestoTranspose, in place.
func axesToTranspose(x *[3]uint32, bits uint) {
	// Inverse undo of the Hilbert transform. For i == 0 the exchange
	// branch is a no-op (t == 0), so only the invert case remains.
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		p := q - 1
		var mask uint32
		if x[0]&q != 0 {
			mask = p
		}
		x[0] ^= mask
		for i := 1; i < 3; i++ {
			mask = 0
			if x[i]&q != 0 {
				mask = ^uint32(0)
			}
			t := (x[0] ^ x[i]) & p
			x[0] ^= t ^ ((t ^ p) & mask) // p if bit set, t otherwise
			x[i] ^= t &^ mask            // 0 if bit set, t otherwise
		}
	}
	// Gray encode.
	x[1] ^= x[0]
	x[2] ^= x[1]
	var t uint32
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		if x[2]&q != 0 {
			t ^= q - 1
		}
	}
	x[0] ^= t
	x[1] ^= t
	x[2] ^= t
}

func skillingHilbertKey(p Vec3, b AABB) uint64 {
	const maxv = (1 << hilbertBits) - 1
	size := b.Size()
	return skillingKey([3]uint32{
		uint32(normCoord(p.X, b.Min.X, size.X, maxv)),
		uint32(normCoord(p.Y, b.Min.Y, size.Y, maxv)),
		uint32(normCoord(p.Z, b.Min.Z, size.Z, maxv)),
	}, hilbertBits)
}

// hilbertOrderRef is HilbertOrder as it was before the radix pass.
func hilbertOrderRef(pts []Vec3) []int {
	b := BoundsOf(pts)
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = skillingHilbertKey(p, b)
	}
	order := make([]int, len(pts))
	for i := range order {
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

// TestHilbertStepDerivedFromSkilling re-derives the 24-state automaton
// from the transpose code and compares it, entry for entry, with the
// checked-in table. A state is what the curve does below a prefix of
// octants; two prefixes are in the same state when every two-level
// continuation gets the same key digits. States are numbered in
// breadth-first order of discovery from the empty prefix, octants
// ascending — the numbering hilbertStep was generated with.
func TestHilbertStepDerivedFromSkilling(t *testing.T) {
	cellOf := func(prefix []uint8) (c [3]uint32) {
		for i, o := range prefix {
			sh := uint(hilbertBits - 1 - i)
			c[0] |= uint32(o>>2&1) << sh
			c[1] |= uint32(o>>1&1) << sh
			c[2] |= uint32(o&1) << sh
		}
		return c
	}
	digitAt := func(key uint64, level int) uint8 {
		return uint8(key >> (3 * uint(hilbertBits-1-level)) & 7)
	}
	extend := func(prefix []uint8, octs ...uint8) []uint8 {
		return append(append([]uint8(nil), prefix...), octs...)
	}
	signature := func(prefix []uint8) (sig [64]uint8) {
		for a := uint8(0); a < 8; a++ {
			for b := uint8(0); b < 8; b++ {
				key := skillingKey(cellOf(extend(prefix, a, b)), hilbertBits)
				sig[a<<3|b] = digitAt(key, len(prefix))<<3 | digitAt(key, len(prefix)+1)
			}
		}
		return sig
	}

	ids := map[[64]uint8]uint8{signature(nil): 0}
	reps := [][]uint8{nil}
	var derived [][8]uint8
	for s := 0; s < len(reps); s++ {
		if len(reps[s])+3 > hilbertBits {
			t.Fatalf("state %d first reached at depth %d: the automaton did not close", s, len(reps[s]))
		}
		var row [8]uint8
		for o := uint8(0); o < 8; o++ {
			p := extend(reps[s], o)
			sig := signature(p)
			id, ok := ids[sig]
			if !ok {
				id = uint8(len(reps))
				ids[sig] = id
				reps = append(reps, p)
			}
			row[o] = digitAt(skillingKey(cellOf(p), hilbertBits), len(reps[s]))<<5 | id
		}
		derived = append(derived, row)
	}
	if len(derived) != len(hilbertStep) {
		t.Fatalf("derived %d states, table has %d", len(derived), len(hilbertStep))
	}
	for s, row := range derived {
		if row != hilbertStep[s] {
			t.Errorf("state %d: derived %#v, table %#v", s, row, hilbertStep[s])
		}
	}
}

// TestHilbertKeyMatchesSkilling compares the table-driven key with the
// transpose algorithm: exhaustively on the 32^3 cells that vary only in
// their five lowest bits under several fixed high parts, and on the 32^3
// that vary only in their five highest bits; on a million random 12-bit
// cells; and through HilbertKey itself, where normCoord clamps points
// outside the box and flattens a zero-extent axis.
func TestHilbertKeyMatchesSkilling(t *testing.T) {
	check := func(x, y, z uint32) {
		t.Helper()
		got, want := hilbertFromCell(x, y, z), skillingKey([3]uint32{x, y, z}, hilbertBits)
		if got != want {
			t.Fatalf("cell (%d,%d,%d): key %#x, Skilling %#x", x, y, z, got, want)
		}
	}
	const low = 5
	rng := rand.New(rand.NewSource(99))
	bases := [][3]uint32{{0, 0, 0}, {4095 &^ 31, 4095 &^ 31, 4095 &^ 31}}
	for i := 0; i < 4; i++ {
		bases = append(bases, [3]uint32{rng.Uint32() & 4095 &^ 31, rng.Uint32() & 4095 &^ 31, rng.Uint32() & 4095 &^ 31})
	}
	for x := uint32(0); x < 1<<low; x++ {
		for y := uint32(0); y < 1<<low; y++ {
			for z := uint32(0); z < 1<<low; z++ {
				for _, b := range bases {
					check(b[0]|x, b[1]|y, b[2]|z)
				}
				const up = hilbertBits - low
				check(x<<up, y<<up, z<<up)
				check(x<<up|1<<up-1, y<<up|1<<up-1, z<<up|1<<up-1)
			}
		}
	}
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint32()&4095, rng.Uint32()&4095, rng.Uint32()&4095)
	}

	box := AABB{Min: Vec3{X: -1, Y: 2, Z: 0.5}, Max: Vec3{X: 3, Y: 2.25, Z: 0.5}} // zero extent in z
	pts := []Vec3{
		box.Min, box.Max,
		{X: -1, Y: 2.25, Z: 0.5}, {X: 3, Y: 2, Z: 0.5},
		{X: -5, Y: 9, Z: -7},                                        // outside: clamps to a corner
		{X: 1e300, Y: -1e300, Z: 1e300},                             // far outside
		{X: math.Nextafter(3, 4), Y: math.Nextafter(2, 1), Z: 0.5},  // one ulp outside
		{X: math.Nextafter(3, 0), Y: math.Nextafter(2.25, 0), Z: 7}, // one ulp inside the max face
		{X: 1, Y: 2.125, Z: 0.5},
	}
	for i := 0; i < 1000; i++ {
		pts = append(pts, Vec3{X: -1.5 + 5*rng.Float64(), Y: 1.9 + 0.45*rng.Float64(), Z: rng.Float64()})
	}
	for _, p := range pts {
		if got, want := HilbertKey(p, box), skillingHilbertKey(p, box); got != want {
			t.Errorf("point %v: key %#x, Skilling %#x", p, got, want)
		}
	}
	if k := HilbertKey(box.Max, AABB{Min: Vec3{}, Max: box.Max}); k >= 1<<(3*hilbertBits) {
		t.Errorf("key %#x of the box's max corner exceeds %d bits", k, 3*hilbertBits)
	}
}

// hilbertOrderClouds are the point clouds the order tests share: uniform,
// duplicates, and a cluster squeezed so that many points share a cell.
func hilbertOrderClouds(rng *rand.Rand, n int) [][]Vec3 {
	uniform := make([]Vec3, n)
	for i := range uniform {
		uniform[i] = Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	dups := append([]Vec3(nil), uniform...)
	for i := 0; i < n/3; i++ {
		dups[rng.Intn(n)] = dups[rng.Intn(n)]
	}
	squeezed := make([]Vec3, n)
	for i := range squeezed {
		squeezed[i] = Vec3{X: 1e-5 * rng.Float64(), Y: 1e-5 * rng.Float64(), Z: 1e-5 * rng.Float64()}
	}
	if n > 0 {
		squeezed[0] = Vec3{X: 1, Y: 1, Z: 1}
	}
	return [][]Vec3{uniform, dups, squeezed}
}

// TestHilbertOrderMatchesReference: the radix order is the comparison
// sort's, duplicates and shared cells in input order, on both sides of the
// packed-index bound.
func TestHilbertOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 17, 5000} {
		for ci, pts := range hilbertOrderClouds(rng, n) {
			want := hilbertOrderRef(pts)
			for _, limit := range []int{maxHilbertWords, 16} {
				saved := maxHilbertWords
				maxHilbertWords = limit
				got := HilbertOrder(pts)
				maxHilbertWords = saved
				if len(got) != len(want) {
					t.Fatalf("n=%d cloud %d limit %d: %d indices, want %d", n, ci, limit, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d cloud %d limit %d: order[%d] = %d, reference %d", n, ci, limit, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// FuzzHilbertOrder drives the same comparison from fuzzer-chosen clouds:
// a seed, a size, a squeeze exponent (how many points land in one cell)
// and a duplicate share.
func FuzzHilbertOrder(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), uint8(0))
	f.Add(int64(2), uint16(1000), uint8(5), uint8(80))
	f.Add(int64(3), uint16(3), uint8(20), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, squeeze, dupShare uint8) {
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, -float64(squeeze%24))
		pts := make([]Vec3, int(n)%4096)
		for i := range pts {
			if i > 0 && rng.Intn(256) < int(dupShare) {
				pts[i] = pts[rng.Intn(i)]
				continue
			}
			pts[i] = Vec3{X: scale * rng.Float64(), Y: scale * rng.Float64(), Z: scale * rng.Float64()}
			if rng.Intn(16) == 0 { // an outlier keeps the box wide, so the rest share cells
				pts[i] = Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			}
		}
		got, want := HilbertOrder(pts), hilbertOrderRef(pts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order[%d] = %d, reference %d (n=%d squeeze=%d dup=%d)", i, got[i], want[i], len(pts), squeeze, dupShare)
			}
		}
	})
}

var hilbertSink uint64

// BenchmarkHilbertKey times one key: three normCoord divisions and six
// table lookups.
func BenchmarkHilbertKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Vec3, 1<<12)
	for i := range pts {
		pts[i] = Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	box := BoundsOf(pts)
	b.ReportAllocs()
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += HilbertKey(pts[i&(len(pts)-1)], box)
	}
	hilbertSink = acc
}
