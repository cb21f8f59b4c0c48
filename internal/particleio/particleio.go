// Package particleio implements the blocked binary particle-file format
// that stands in for the paper's MPI-IO snapshot reads: the file holds one
// contiguous block per writer sub-volume, with a header recording per-block
// particle counts, byte offsets, and bounding boxes, so readers can fetch
// an arbitrary block assignment concurrently (the paper's "parallel read
// of the data using an arbitrary block assignment").
package particleio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// Magic identifies the format; Version is bumped on layout changes.
// Version 2 adds a flags word with an optional per-particle velocity
// block (rows grow from 24 to 48 bytes).
const (
	Magic   = 0x44544645 // "DTFE"
	Version = 2

	flagVelocities = 1 << 0
)

// BlockInfo describes one contiguous particle block.
type BlockInfo struct {
	Count  int64
	Offset int64 // byte offset of the block payload
	Bounds geom.AABB
}

// Header is the file header.
type Header struct {
	NumParticles int64
	HasVel       bool
	Bounds       geom.AABB
	Blocks       []BlockInfo
}

// rowSize is the payload bytes per particle.
func (h Header) rowSize() int64 {
	if h.HasVel {
		return 48
	}
	return 24
}

// Write stores particles split into the given per-block index lists. Block
// payloads are little-endian float64 x,y,z triplets. With no block lists
// (nil or empty) all particles go into one block, in input order.
func Write(path string, pts []geom.Vec3, blocks [][]int32) error {
	return writeFile(path, pts, nil, blocks)
}

// WriteWithVelocities stores positions and per-particle velocities.
func WriteWithVelocities(path string, pts, vels []geom.Vec3, blocks [][]int32) error {
	if len(vels) != len(pts) {
		return errors.New("particleio: velocity length mismatch")
	}
	return writeFile(path, pts, vels, blocks)
}

func writeFile(path string, pts, vels []geom.Vec3, blocks [][]int32) error {
	if len(blocks) == 0 {
		// A header of N particles in zero blocks is one no reader accepts.
		all := make([]int32, len(pts))
		for i := range all {
			all[i] = int32(i)
		}
		blocks = [][]int32{all}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)

	// Compute header layout first: fixed part + per-block entries.
	// Layout: magic u32, version u32, flags u32, numBlocks u32,
	// numParticles i64, bounds 6xf64, then per block: count i64,
	// offset i64, bounds 6xf64.
	fixed := 4 + 4 + 4 + 4 + 8 + 48
	perBlock := 8 + 8 + 48
	payloadStart := int64(fixed + perBlock*len(blocks))

	hdr := Header{NumParticles: int64(len(pts)), HasVel: vels != nil, Bounds: geom.BoundsOf(pts)}
	rowSz := hdr.rowSize()
	offset := payloadStart
	for _, idx := range blocks {
		b := geom.EmptyAABB()
		for _, i := range idx {
			b.Extend(pts[i])
		}
		hdr.Blocks = append(hdr.Blocks, BlockInfo{Count: int64(len(idx)), Offset: offset, Bounds: b})
		offset += int64(len(idx)) * rowSz
	}

	le := binary.LittleEndian
	buf := make([]byte, 0, 64)
	put32 := func(v uint32) { buf = le.AppendUint32(buf, v) }
	put64 := func(v uint64) { buf = le.AppendUint64(buf, v) }
	putF := func(v float64) { put64(math.Float64bits(v)) }
	putBox := func(b geom.AABB) {
		putF(b.Min.X)
		putF(b.Min.Y)
		putF(b.Min.Z)
		putF(b.Max.X)
		putF(b.Max.Y)
		putF(b.Max.Z)
	}
	put32(Magic)
	put32(Version)
	flags := uint32(0)
	if hdr.HasVel {
		flags |= flagVelocities
	}
	put32(flags)
	put32(uint32(len(blocks)))
	put64(uint64(hdr.NumParticles))
	putBox(hdr.Bounds)
	for _, bi := range hdr.Blocks {
		put64(uint64(bi.Count))
		put64(uint64(bi.Offset))
		putBox(bi.Bounds)
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	row := make([]byte, rowSz)
	for _, idx := range blocks {
		for _, i := range idx {
			le.PutUint64(row[0:], math.Float64bits(pts[i].X))
			le.PutUint64(row[8:], math.Float64bits(pts[i].Y))
			le.PutUint64(row[16:], math.Float64bits(pts[i].Z))
			if hdr.HasVel {
				le.PutUint64(row[24:], math.Float64bits(vels[i].X))
				le.PutUint64(row[32:], math.Float64bits(vels[i].Y))
				le.PutUint64(row[40:], math.Float64bits(vels[i].Z))
			}
			if _, err := w.Write(row); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// WriteDecomposed splits particles into an nx×ny×nz spatial block grid
// (the way a simulation's rank decomposition lays blocks on disk) and
// writes them.
func WriteDecomposed(path string, pts []geom.Vec3, nx, ny, nz int) error {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return errors.New("particleio: block grid must be positive")
	}
	box := geom.BoundsOf(pts)
	sz := box.Size()
	blocks := make([][]int32, nx*ny*nz)
	for i, p := range pts {
		cx := cellIdx(p.X, box.Min.X, sz.X, nx)
		cy := cellIdx(p.Y, box.Min.Y, sz.Y, ny)
		cz := cellIdx(p.Z, box.Min.Z, sz.Z, nz)
		b := (cz*ny+cy)*nx + cx
		blocks[b] = append(blocks[b], int32(i))
	}
	return Write(path, pts, blocks)
}

func cellIdx(v, min, size float64, n int) int {
	if size <= 0 {
		return 0
	}
	c := int(float64(n) * (v - min) / size)
	if c < 0 {
		c = 0
	}
	if c >= n {
		c = n - 1
	}
	return c
}

// Header layout constants, for offset arithmetic in error reports.
const (
	fixedHeaderSize = 4 + 4 + 4 + 4 + 8 + 48
	blockEntrySize  = 8 + 8 + 48

	offMagic        = 0
	offVersion      = 4
	offFlags        = 8
	offNumBlocks    = 12
	offNumParticles = 16
)

// HeaderSize is the byte size of the header for a file with n blocks.
func HeaderSize(n int) int64 { return int64(fixedHeaderSize + blockEntrySize*n) }

// ReadHeader parses and validates the header. Malformed or truncated
// files yield a *geomerr.FormatError (matching geomerr.ErrBadFormat)
// that carries the byte offset of the defect.
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	h, err := readHeader(f)
	if err != nil {
		return Header{}, err
	}
	st, err := f.Stat()
	if err != nil {
		return Header{}, err
	}
	if err := h.Validate(st.Size()); err != nil {
		return Header{}, err
	}
	return h, nil
}

func readHeader(r io.Reader) (Header, error) {
	le := binary.LittleEndian
	fixed := make([]byte, fixedHeaderSize)
	if n, err := io.ReadFull(r, fixed); err != nil {
		return Header{}, geomerr.Format(int64(n), err,
			"particleio: truncated fixed header (%d of %d bytes)", n, fixedHeaderSize)
	}
	if got := le.Uint32(fixed[offMagic:]); got != Magic {
		return Header{}, geomerr.Format(offMagic, nil,
			"particleio: bad magic 0x%08x (want 0x%08x)", got, Magic)
	}
	if v := le.Uint32(fixed[offVersion:]); v != Version {
		return Header{}, geomerr.Format(offVersion, nil,
			"particleio: unsupported version %d (want %d)", v, Version)
	}
	flags := le.Uint32(fixed[offFlags:])
	if flags&^uint32(flagVelocities) != 0 {
		return Header{}, geomerr.Format(offFlags, nil,
			"particleio: unknown flag bits 0x%08x", flags&^uint32(flagVelocities))
	}
	numBlocks := int64(le.Uint32(fixed[offNumBlocks:]))
	h := Header{
		NumParticles: int64(le.Uint64(fixed[offNumParticles:])),
		HasVel:       flags&flagVelocities != 0,
	}
	if h.NumParticles < 0 {
		return Header{}, geomerr.Format(offNumParticles, nil,
			"particleio: negative particle count %d", h.NumParticles)
	}
	h.Bounds = readBox(fixed[24:])
	entry := make([]byte, blockEntrySize)
	for b := int64(0); b < numBlocks; b++ {
		entryOff := int64(fixedHeaderSize) + b*blockEntrySize
		if n, err := io.ReadFull(r, entry); err != nil {
			return Header{}, geomerr.Format(entryOff+int64(n), err,
				"particleio: truncated header: block entry %d of %d", b, numBlocks)
		}
		h.Blocks = append(h.Blocks, BlockInfo{
			Count:  int64(le.Uint64(entry[0:])),
			Offset: int64(le.Uint64(entry[8:])),
			Bounds: readBox(entry[16:]),
		})
	}
	return h, nil
}

// Validate cross-checks the header against the file size: non-negative
// in-range block counts and offsets, payloads inside the file (catching
// truncation), and block counts summing to NumParticles. A fileSize < 0
// skips the size checks (for readers without random access).
func (h Header) Validate(fileSize int64) error {
	hdrEnd := HeaderSize(len(h.Blocks))
	rowSz := h.rowSize()
	var total int64
	for b, bi := range h.Blocks {
		entryOff := int64(fixedHeaderSize) + int64(b)*blockEntrySize
		if bi.Count < 0 {
			return geomerr.Format(entryOff, nil,
				"particleio: block %d has negative count %d", b, bi.Count)
		}
		if bi.Offset < hdrEnd {
			return geomerr.Format(entryOff+8, nil,
				"particleio: block %d payload offset %d overlaps the %d-byte header",
				b, bi.Offset, hdrEnd)
		}
		if bi.Count > (1<<62)/rowSz {
			return geomerr.Format(entryOff, nil,
				"particleio: block %d count %d overflows payload size", b, bi.Count)
		}
		if fileSize >= 0 {
			if end := bi.Offset + bi.Count*rowSz; end > fileSize {
				return geomerr.Format(entryOff+8, nil,
					"particleio: truncated file: block %d payload [%d,%d) exceeds file size %d",
					b, bi.Offset, end, fileSize)
			}
		}
		total += bi.Count
		if total < 0 {
			return geomerr.Format(entryOff, nil,
				"particleio: block counts overflow at block %d", b)
		}
	}
	if total != h.NumParticles {
		return geomerr.Format(offNumParticles, nil,
			"particleio: block counts sum to %d, header says %d particles",
			total, h.NumParticles)
	}
	return nil
}

func readBox(b []byte) geom.AABB {
	le := binary.LittleEndian
	f := func(off int) float64 { return math.Float64frombits(le.Uint64(b[off:])) }
	return geom.AABB{
		Min: geom.Vec3{X: f(0), Y: f(8), Z: f(16)},
		Max: geom.Vec3{X: f(24), Y: f(32), Z: f(40)},
	}
}

// ReadBlock reads one block's particle positions.
func ReadBlock(path string, h Header, block int) ([]geom.Vec3, error) {
	pts, _, err := ReadBlockVel(path, h, block)
	return pts, err
}

// ReadBlockVel reads one block's positions and, when present, velocities
// (nil otherwise).
func ReadBlockVel(path string, h Header, block int) ([]geom.Vec3, []geom.Vec3, error) {
	if block < 0 || block >= len(h.Blocks) {
		return nil, nil, fmt.Errorf("particleio: block %d out of range", block)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return readBlockFrom(f, h, h.Blocks[block])
}

func readBlockFrom(f *os.File, h Header, bi BlockInfo) ([]geom.Vec3, []geom.Vec3, error) {
	rowSz := h.rowSize()
	if st, err := f.Stat(); err == nil {
		if end := bi.Offset + bi.Count*rowSz; bi.Count < 0 || end > st.Size() {
			return nil, nil, geomerr.Format(bi.Offset, nil,
				"particleio: truncated file: block payload [%d,%d) exceeds file size %d",
				bi.Offset, bi.Offset+bi.Count*rowSz, st.Size())
		}
	}
	buf := make([]byte, bi.Count*rowSz)
	if n, err := f.ReadAt(buf, bi.Offset); err != nil {
		return nil, nil, geomerr.Format(bi.Offset+int64(n), err,
			"particleio: short block read (%d of %d bytes)", n, len(buf))
	}
	le := binary.LittleEndian
	pts := make([]geom.Vec3, bi.Count)
	var vels []geom.Vec3
	if h.HasVel {
		vels = make([]geom.Vec3, bi.Count)
	}
	for i := range pts {
		off := int64(i) * rowSz
		pts[i] = geom.Vec3{
			X: math.Float64frombits(le.Uint64(buf[off:])),
			Y: math.Float64frombits(le.Uint64(buf[off+8:])),
			Z: math.Float64frombits(le.Uint64(buf[off+16:])),
		}
		if h.HasVel {
			vels[i] = geom.Vec3{
				X: math.Float64frombits(le.Uint64(buf[off+24:])),
				Y: math.Float64frombits(le.Uint64(buf[off+32:])),
				Z: math.Float64frombits(le.Uint64(buf[off+40:])),
			}
		}
	}
	return pts, vels, nil
}

// ReadBlocks reads the given blocks concurrently (one file handle per
// goroutine, like independent MPI-IO requests) and returns their
// concatenated particles in block order.
func ReadBlocks(path string, h Header, blocks []int) ([]geom.Vec3, error) {
	results := make([][]geom.Vec3, len(blocks))
	errs := make([]error, len(blocks))
	var wg sync.WaitGroup
	for i, b := range blocks {
		wg.Add(1)
		go func(i, b int) {
			defer wg.Done()
			results[i], errs[i] = ReadBlock(path, h, b)
		}(i, b)
	}
	wg.Wait()
	var out []geom.Vec3
	for i := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

// ReadAll reads every particle in the file.
func ReadAll(path string) ([]geom.Vec3, error) {
	h, err := ReadHeader(path)
	if err != nil {
		return nil, err
	}
	blocks := make([]int, len(h.Blocks))
	for i := range blocks {
		blocks[i] = i
	}
	return ReadBlocks(path, h, blocks)
}
