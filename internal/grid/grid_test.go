package grid

import (
	"bytes"
	"math"
	"testing"

	"godtfe/internal/geom"
)

func TestGrid2DBasics(t *testing.T) {
	g := NewGrid2D(4, 3, geom.Vec2{X: 1, Y: 2}, 0.5)
	g.Set(2, 1, 7)
	if g.At(2, 1) != 7 {
		t.Fatal("set/get mismatch")
	}
	g.Add(2, 1, 1)
	if g.At(2, 1) != 8 {
		t.Fatal("add mismatch")
	}
	if c := g.Center(0, 0); c != (geom.Vec2{X: 1.25, Y: 2.25}) {
		t.Fatalf("center = %v", c)
	}
	if i, j := g.CellIndex(geom.Vec2{X: 1.6, Y: 2.6}); i != 1 || j != 1 {
		t.Fatalf("cell index = %d,%d", i, j)
	}
	// Clamping.
	if i, j := g.CellIndex(geom.Vec2{X: -5, Y: 100}); i != 0 || j != 2 {
		t.Fatalf("clamped index = %d,%d", i, j)
	}
	if g.Sum() != 8 {
		t.Fatalf("sum = %v", g.Sum())
	}
	if g.Integral() != 8*0.25 {
		t.Fatalf("integral = %v", g.Integral())
	}
	lo, hi := g.MinMax()
	if lo != 0 || hi != 8 {
		t.Fatalf("minmax = %v,%v", lo, hi)
	}
	c := g.Clone()
	c.Set(0, 0, 5)
	if g.At(0, 0) != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestRatioMap(t *testing.T) {
	a := NewGrid2D(2, 2, geom.Vec2{}, 1)
	b := NewGrid2D(2, 2, geom.Vec2{}, 1)
	a.Set(0, 0, 100)
	b.Set(0, 0, 10)
	a.Set(1, 0, 1)
	b.Set(1, 0, 1)
	// (0,1) stays zero in both -> NaN
	a.Set(1, 1, 5)
	b.Set(1, 1, 0) // zero denominator -> NaN
	r, err := RatioMap(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(0, 0) != 1 {
		t.Fatalf("ratio(0,0) = %v", r.At(0, 0))
	}
	if r.At(1, 0) != 0 {
		t.Fatalf("ratio(1,0) = %v", r.At(1, 0))
	}
	if !math.IsNaN(r.At(0, 1)) || !math.IsNaN(r.At(1, 1)) {
		t.Fatal("expected NaN for non-positive cells")
	}
	if _, err := RatioMap(a, NewGrid2D(3, 2, geom.Vec2{}, 1)); err == nil {
		t.Fatal("mismatched shapes must error")
	}
}

func TestL1Diff(t *testing.T) {
	a := NewGrid2D(2, 1, geom.Vec2{}, 1)
	b := NewGrid2D(2, 1, geom.Vec2{}, 1)
	a.Set(0, 0, 1)
	b.Set(1, 0, 3)
	d, err := L1Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("l1 = %v", d)
	}
}

func TestWriteCSVAndXYZ(t *testing.T) {
	g := NewGrid2D(2, 2, geom.Vec2{}, 0.5)
	g.Set(0, 0, 1)
	g.Set(1, 1, 2.5)
	var csv bytes.Buffer
	if err := g.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != "1,0\n0,2.5\n" {
		t.Fatalf("csv = %q", csv.String())
	}
	var xyz bytes.Buffer
	if err := g.WriteXYZ(&xyz); err != nil {
		t.Fatal(err)
	}
	want := "0.25,0.25,1\n0.75,0.25,0\n0.25,0.75,0\n0.75,0.75,2.5\n"
	if xyz.String() != want {
		t.Fatalf("xyz = %q", xyz.String())
	}
}

func TestWritePGM(t *testing.T) {
	g := NewGrid2D(3, 2, geom.Vec2{}, 1)
	g.Set(0, 0, 1)
	g.Set(2, 1, 1000)
	var buf bytes.Buffer
	if err := g.WritePGM(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n3 2\n255\n")) {
		t.Fatalf("bad header: %q", out[:12])
	}
	if len(out) != len("P5\n3 2\n255\n")+6 {
		t.Fatalf("bad payload size %d", len(out))
	}
	// All-zero grid must not divide by zero.
	var buf2 bytes.Buffer
	if err := NewGrid2D(2, 2, geom.Vec2{}, 1).WritePGM(&buf2, true); err != nil {
		t.Fatal(err)
	}
}

func TestChecksum(t *testing.T) {
	g := NewGrid2D(4, 3, geom.Vec2{X: 1, Y: 2}, 0.5)
	for i := range g.Data {
		g.Data[i] = float64(i) * 1.25
	}
	sum := g.Checksum()
	if sum != g.Clone().Checksum() {
		t.Fatal("checksum not a pure function of contents")
	}
	// Any single-bit flip in any cell must change the sum.
	for i := range g.Data {
		c := g.Clone()
		c.Data[i] = math.Float64frombits(math.Float64bits(c.Data[i]) ^ 1)
		if c.Checksum() == sum {
			t.Fatalf("bit flip in cell %d not detected", i)
		}
	}
	// Shape and placement participate: a transposed or shifted grid with
	// the same payload hashes differently.
	tr := NewGrid2D(3, 4, geom.Vec2{X: 1, Y: 2}, 0.5)
	copy(tr.Data, g.Data)
	if tr.Checksum() == sum {
		t.Fatal("transposed grid collides")
	}
	sh := g.Clone()
	sh.Min.X += 1
	if sh.Checksum() == sum {
		t.Fatal("shifted grid collides")
	}
	// -0.0 and +0.0 compare equal as floats but are different bits; the
	// checksum must distinguish them (bit-identity, not value identity).
	z := g.Clone()
	z.Data[0] = math.Copysign(0, -1)
	g.Data[0] = 0
	if z.Checksum() == g.Checksum() {
		t.Fatal("-0.0 vs +0.0 collides")
	}
}

func TestSubGrid(t *testing.T) {
	g := NewGrid2D(6, 5, geom.Vec2{X: -1, Y: 2}, 0.25)
	for i := range g.Data {
		g.Data[i] = float64(i) + 0.5
	}
	sub, err := g.SubGrid(2, 1, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Nx != 3 || sub.Ny != 4 || sub.Cell != g.Cell {
		t.Fatalf("bad shape %dx%d cell %v", sub.Nx, sub.Ny, sub.Cell)
	}
	for j := 0; j < sub.Ny; j++ {
		for i := 0; i < sub.Nx; i++ {
			if sub.At(i, j) != g.At(2+i, 1+j) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, sub.At(i, j), g.At(2+i, 1+j))
			}
			if sub.Center(i, j) != g.Center(2+i, 1+j) {
				t.Fatalf("center (%d,%d) moved", i, j)
			}
		}
	}
	// Extraction at the origin must carry Min through bit-for-bit.
	sub0, err := g.SubGrid(0, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub0.Min != g.Min {
		t.Fatal("origin subgrid perturbed Min")
	}
	// Copy semantics: mutating the subgrid must not touch the parent.
	before := g.At(2, 1)
	sub.Set(0, 0, -99)
	if g.At(2, 1) != before {
		t.Fatal("subgrid aliases parent data")
	}
	for _, bad := range [][4]int{{-1, 0, 2, 2}, {0, -1, 2, 2}, {0, 0, 0, 2}, {0, 0, 2, 0}, {5, 0, 2, 2}, {0, 4, 2, 2}} {
		if _, err := g.SubGrid(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Fatalf("subgrid %v accepted", bad)
		}
	}
}

func TestColumnRoundTrip(t *testing.T) {
	g := NewGrid2D(4, 6, geom.Vec2{}, 1)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	col := g.Column(2, nil)
	if len(col) != g.Ny {
		t.Fatalf("column length %d", len(col))
	}
	for j, v := range col {
		if v != g.At(2, j) {
			t.Fatalf("row %d: %v != %v", j, v, g.At(2, j))
		}
	}
	// Reuse a larger dst without reallocating.
	dst := make([]float64, 10)
	col2 := g.Column(2, dst)
	if &col2[0] != &dst[0] || len(col2) != g.Ny {
		t.Fatal("dst not reused")
	}
	// SetColumn writes back, including short (prefix) writes.
	h := NewGrid2D(4, 6, geom.Vec2{}, 1)
	h.SetColumn(2, col)
	for j := 0; j < g.Ny; j++ {
		if h.At(2, j) != g.At(2, j) {
			t.Fatalf("setcolumn row %d mismatch", j)
		}
	}
	mark := h.At(1, 5)
	h.SetColumn(1, col[:3])
	if h.At(1, 2) != col[2] || h.At(1, 5) != mark {
		t.Fatal("prefix SetColumn wrote wrong rows")
	}
}

func TestChecksumBits(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, math.Pi}
	sum := ChecksumBits(vals)
	cp := append([]float64(nil), vals...)
	if ChecksumBits(cp) != sum {
		t.Fatal("not a pure function of contents")
	}
	for i := range vals {
		c := append([]float64(nil), vals...)
		c[i] = math.Float64frombits(math.Float64bits(c[i]) ^ 1)
		if ChecksumBits(c) == sum {
			t.Fatalf("bit flip at %d not detected", i)
		}
	}
	if ChecksumBits(vals[:3]) == sum {
		t.Fatal("length does not participate")
	}
	neg := append([]float64(nil), vals...)
	neg[2] = math.Copysign(0, -1)
	if ChecksumBits(neg) == sum {
		t.Fatal("-0.0 vs +0.0 collides")
	}
}
