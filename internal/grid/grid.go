// Package grid provides the dense 2D regular grid used for rendered
// density fields, plus the map algebra needed by the paper's evaluation
// (ratio maps, summaries) and a PGM dump for eyeballing results.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"godtfe/internal/geom"
)

// Grid2D is a dense row-major 2D scalar field over a physical rectangle.
type Grid2D struct {
	Nx, Ny int
	Min    geom.Vec2
	Cell   float64 // square cell edge length
	Data   []float64
}

// NewGrid2D allocates an Nx×Ny grid with lower corner min and cell size
// cell.
func NewGrid2D(nx, ny int, min geom.Vec2, cell float64) *Grid2D {
	return &Grid2D{Nx: nx, Ny: ny, Min: min, Cell: cell, Data: make([]float64, nx*ny)}
}

// At returns the value at column i, row j.
func (g *Grid2D) At(i, j int) float64 { return g.Data[j*g.Nx+i] }

// Set stores v at column i, row j.
func (g *Grid2D) Set(i, j int, v float64) { g.Data[j*g.Nx+i] = v }

// Add accumulates v at column i, row j.
func (g *Grid2D) Add(i, j int, v float64) { g.Data[j*g.Nx+i] += v }

// Center returns the physical center of cell (i, j).
func (g *Grid2D) Center(i, j int) geom.Vec2 {
	return geom.Vec2{
		X: g.Min.X + (float64(i)+0.5)*g.Cell,
		Y: g.Min.Y + (float64(j)+0.5)*g.Cell,
	}
}

// CellIndex returns the cell containing the physical point p, clamped to
// the grid.
func (g *Grid2D) CellIndex(p geom.Vec2) (i, j int) {
	i = clampInt(int(math.Floor((p.X-g.Min.X)/g.Cell)), 0, g.Nx-1)
	j = clampInt(int(math.Floor((p.Y-g.Min.Y)/g.Cell)), 0, g.Ny-1)
	return
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sum returns the sum of all cell values.
func (g *Grid2D) Sum() float64 {
	var s float64
	for _, v := range g.Data {
		s += v
	}
	return s
}

// Integral returns Sum scaled by the cell area: the approximate integral
// of the field over the grid footprint (for surface density, the total
// mass under the grid).
func (g *Grid2D) Integral() float64 { return g.Sum() * g.Cell * g.Cell }

// MinMax returns the smallest and largest cell values.
func (g *Grid2D) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range g.Data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// fnvMix folds one 64-bit word into an FNV-1a state, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Checksum returns an FNV-1a hash over the grid's shape, placement, and
// the exact bit patterns of every cell. Two grids have equal checksums iff
// they are bit-identical (up to hash collision), which is what the serving
// layer's cache-integrity verification and the distributed render's
// bit-exactness assertions need: float equality would miss NaN payloads
// and signed zeros that WritePGM and downstream consumers can observe.
func (g *Grid2D) Checksum() uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(g.Nx))
	h = fnvMix(h, uint64(g.Ny))
	h = fnvMix(h, math.Float64bits(g.Min.X))
	h = fnvMix(h, math.Float64bits(g.Min.Y))
	h = fnvMix(h, math.Float64bits(g.Cell))
	for _, v := range g.Data {
		h = fnvMix(h, math.Float64bits(v))
	}
	return h
}

// ChecksumBits is the FNV-1a hash of a bare float64 slice's length and
// exact bit patterns — the value-only counterpart of Grid2D.Checksum,
// used by caches that store raw column data rather than whole grids.
func ChecksumBits(vals []float64) uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(len(vals)))
	for _, v := range vals {
		h = fnvMix(h, math.Float64bits(v))
	}
	return h
}

// AppendFast appends a compact binary encoding of the grid to buf: header
// fields as uvarints and little-endian IEEE 754 words, then the data block.
// It is not the wire format — grids cross ranks through the mpi codec like
// every other message; the benchmark harness (bench/e2e) times it per cell
// as a serialization cost.
func (g *Grid2D) AppendFast(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(g.Nx))
	buf = binary.AppendUvarint(buf, uint64(g.Ny))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Min.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Min.Y))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Cell))
	buf = binary.AppendUvarint(buf, uint64(len(g.Data)))
	for _, v := range g.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// SubGrid extracts a copy of the nx×ny window whose lower-left cell is
// (i0, j0). The window's Min is shifted by whole cells, so cell (i, j) of
// the result covers the same physical square as cell (i0+i, j0+j) of g.
// Note the shifted Min is recomputed in floating point; callers that need
// a bit-exact Min (the serving layer's slices) extract at (0, 0), where
// Min is carried through unchanged.
func (g *Grid2D) SubGrid(i0, j0, nx, ny int) (*Grid2D, error) {
	if i0 < 0 || j0 < 0 || nx <= 0 || ny <= 0 || i0+nx > g.Nx || j0+ny > g.Ny {
		return nil, fmt.Errorf("grid: subgrid [%d,%d)x[%d,%d) outside %dx%d", i0, i0+nx, j0, j0+ny, g.Nx, g.Ny)
	}
	min := g.Min
	if i0 > 0 {
		min.X += float64(i0) * g.Cell
	}
	if j0 > 0 {
		min.Y += float64(j0) * g.Cell
	}
	out := NewGrid2D(nx, ny, min, g.Cell)
	for j := 0; j < ny; j++ {
		copy(out.Data[j*nx:(j+1)*nx], g.Data[(j0+j)*g.Nx+i0:(j0+j)*g.Nx+i0+nx])
	}
	return out, nil
}

// Column copies column i (rows 0..Ny-1) into dst, growing it as needed,
// and returns the filled slice.
func (g *Grid2D) Column(i int, dst []float64) []float64 {
	if cap(dst) < g.Ny {
		dst = make([]float64, g.Ny)
	}
	dst = dst[:g.Ny]
	for j := 0; j < g.Ny; j++ {
		dst[j] = g.Data[j*g.Nx+i]
	}
	return dst
}

// SetColumn writes vals into column i, starting at row 0. len(vals) may be
// at most Ny; extra rows of the grid are left untouched.
func (g *Grid2D) SetColumn(i int, vals []float64) {
	for j, v := range vals {
		g.Data[j*g.Nx+i] = v
	}
}

// Clone returns a deep copy.
func (g *Grid2D) Clone() *Grid2D {
	out := NewGrid2D(g.Nx, g.Ny, g.Min, g.Cell)
	copy(out.Data, g.Data)
	return out
}

// RatioMap returns log10(a/b) per cell (paper Fig 8c). Cells where either
// input is not strictly positive are NaN.
func RatioMap(a, b *Grid2D) (*Grid2D, error) {
	if a.Nx != b.Nx || a.Ny != b.Ny {
		return nil, errors.New("grid: ratio map of mismatched grids")
	}
	out := NewGrid2D(a.Nx, a.Ny, a.Min, a.Cell)
	for i, av := range a.Data {
		bv := b.Data[i]
		if av > 0 && bv > 0 {
			out.Data[i] = math.Log10(av / bv)
		} else {
			out.Data[i] = math.NaN()
		}
	}
	return out, nil
}

// L1Diff returns the mean absolute difference between two same-shape
// grids.
func L1Diff(a, b *Grid2D) (float64, error) {
	if a.Nx != b.Nx || a.Ny != b.Ny {
		return 0, errors.New("grid: diff of mismatched grids")
	}
	var s float64
	for i := range a.Data {
		s += math.Abs(a.Data[i] - b.Data[i])
	}
	return s / float64(len(a.Data)), nil
}

// WritePGM writes the grid as an 8-bit PGM image, mapping values through
// log10 when logScale is set; NaNs map to black.
func (g *Grid2D) WritePGM(w io.Writer, logScale bool) error {
	vals := make([]float64, len(g.Data))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range g.Data {
		if logScale {
			if v > 0 {
				v = math.Log10(v)
			} else {
				v = math.NaN()
			}
		}
		vals[i] = v
		if !math.IsNaN(v) {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", g.Nx, g.Ny); err != nil {
		return err
	}
	row := make([]byte, g.Nx)
	for j := g.Ny - 1; j >= 0; j-- { // top row first
		for i := 0; i < g.Nx; i++ {
			v := vals[j*g.Nx+i]
			if math.IsNaN(v) {
				row[i] = 0
				continue
			}
			row[i] = byte(255 * (v - lo) / span)
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}
