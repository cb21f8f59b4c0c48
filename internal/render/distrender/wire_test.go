package distrender

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// wireCase is one renderer message with a constructor of its zero value
// and its golden encoding in hex.
type wireCase struct {
	name   string
	msg    any
	zero   func() any
	golden string
}

// wireCases are one message of each wire type: a batch with its spec,
// spans and a one-tet slab, the shutdown batch, and two tile results (a
// healthy tile with its grid and stats, an Err-only tile).
func wireCases() []wireCase {
	g := grid.NewGrid2D(2, 1, geom.Vec2{X: 1, Y: -2}, 0.5)
	g.Data[0], g.Data[1] = 1.5, -0.25
	batch := func() any { return new(assignBatch) }
	result := func() any { return new(tileResult) }
	zeroSpec := strings.Repeat("00", 8*2+2+8*3+3) // Min, Nx, Ny, Cell, ZMin, ZMax, Nz, Samples, Seed
	return []wireCase{
		{"assignBatch", &assignBatch{
			Spec:    render.Spec{Min: geom.Vec2{X: 1, Y: -2}, Nx: 4, Ny: 1, Cell: 0.5, Samples: 2, Seed: 5},
			Workers: 2,
			Tiles:   []batchTile{{K: 1, Span: render.Tile{I0: 0, I1: 2}}, {K: 200, Span: render.Tile{I0: 2, I1: 4}}},
			Slab: &render.Slab{
				X0: 1, X1: 2, Eps: 0.5, MaxSteps: 21,
				Pts:     []geom.Vec3{{X: 1, Y: 2, Z: 3}, {}, {}, {}},
				Density: []float64{1, 0, 0, 0},
				Tets:    []int32{0, 1, 2, 3, -1, -1, -2, -1},
				Entry:   []int32{0, 2, 1, 0},
			},
		}, batch,
			"16" + hex.EncodeToString([]byte("distrender.assignBatch")) + "00" + // not a shutdown
				"000000000000f03f" + "00000000000000c0" + "08" + "02" + "000000000000e03f" + // Min, Nx 4, Ny 1, Cell 0.5
				"0000000000000000" + "0000000000000000" + "00" + "04" + "0a" + // ZMin, ZMax, Nz, Samples 2, Seed 5
				"04" + // Workers 2
				"02" + "02" + "00" + "04" + "9003" + "04" + "08" + // tile 1 [0,2), tile 200 [2,4)
				"01" + "000000000000f03f" + "0000000000000040" + "000000000000e03f" + "2a" + // a slab: X0 1, X1 2, Eps 0.5, MaxSteps 21
				"04" + "000000000000f03f" + "0000000000000040" + "0000000000000840" + // four vertices
				strings.Repeat("0000000000000000", 9) +
				"04" + "000000000000f03f" + strings.Repeat("0000000000000000", 3) + // four densities
				"08" + "00000000" + "01000000" + "02000000" + "03000000" + // one tet: V,
				"ffffffff" + "ffffffff" + "feffffff" + "ffffffff" + // N: hull, hull, outside, hull
				"04" + "00000000" + "02000000" + "01000000" + "00000000"}, // one entry facet
		{"shutdown", &assignBatch{Shutdown: true}, batch,
			"16" + hex.EncodeToString([]byte("distrender.assignBatch")) + "01" + zeroSpec + "00" + "00" + "00"}, // no workers, tiles or slab
		{"tileResult", &tileResult{
			Tile: 3, Rank: 4, Grid: g, Stats: []render.WorkerStat{{
				Worker: 1, Busy: time.Millisecond, Cells: 2, Steps: 300,
				Columns: render.OutcomeCounts{Clean: 2, Perturbed: 1},
			}},
		}, result,
			"15" + hex.EncodeToString([]byte("distrender.tileResult")) +
				"06" + "08" + "00" + // tile 3, rank 4, no error
				"01" + // grid present:
				"04" + "02" + "000000000000f03f" + "00000000000000c0" + "000000000000e03f" + // 2x1 at (1,-2), cell 0.5
				"02" + "000000000000f83f" + "000000000000d0bf" + // 2 words: 1.5, -0.25
				"01" + "02" + "80897a" + "04" + "d804" + "04" + "02" + "00" + "00"}, // one stat
		{"tileResultErr", &tileResult{Tile: 5, Rank: 4, Err: "march failed"}, result,
			"15" + hex.EncodeToString([]byte("distrender.tileResult")) +
				"0a" + "08" + "0c" + hex.EncodeToString([]byte("march failed")) + // tile 5, rank 4
				"00" + "00"}, // no grid, no stats
	}
}

// TestTreeWireRoundTrip pins the renderer's messages on the mpi codec byte
// for byte, checks that each decodes back to itself, and that every strict
// prefix of each encoding is an error that leaves the receiver at zero — a
// truncated message is never half-accepted.
func TestTreeWireRoundTrip(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			enc, err := mpi.Encode(nil, c.msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(enc); got != c.golden {
				t.Fatalf("encoding\n got %s\nwant %s", got, c.golden)
			}
			got := c.zero()
			if err := mpi.Decode(enc, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.msg) {
				t.Fatalf("round trip: sent %+v, got %+v", c.msg, got)
			}
			for n := range enc {
				got := c.zero()
				if err := mpi.Decode(enc[:n], got); err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded without error: %+v", n, len(enc), got)
				}
				if !reflect.DeepEqual(got, c.zero()) {
					t.Fatalf("prefix of %d/%d bytes left a half-accepted message: %+v", n, len(enc), got)
				}
			}
		})
	}
}

// FuzzTreeWireDecode hammers the mpi codec with arbitrary bytes decoded into
// every renderer message type: garbage must be rejected with an error,
// never panic or over-allocate on implausible counts.
func FuzzTreeWireDecode(f *testing.F) {
	for _, c := range wireCases() {
		enc, err := mpi.Encode(nil, c.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Real batches: a static share and a single-tile re-dispatch.
	co := realCoord(f, 12)
	for _, tiles := range [][]int{shares(8, 3)[1], {5}} {
		enc, err := mpi.Encode(nil, co.batch(tiles))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	// A healthy tile result whose 2x1 grid claims 2^64-1 data words: the
	// decoder must reject the count before it allocates.
	header := "\x15distrender.tileResult" + "\x06\x08\x00" + "\x01" + "\x04\x02" + strings.Repeat("\x00", 24)
	f.Add(append([]byte(header), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range wireCases() {
			_ = mpi.Decode(data, c.zero())
		}
		var b assignBatch
		if mpi.Decode(data, &b) == nil && b.Slab != nil {
			_, _ = render.NewSlabMarcher(b.Slab)
		}
	})
}

// realCatalog is n clustered particles in the unit cube, the end-to-end
// workloads' kind of catalog.
func realCatalog(n int) []geom.Vec3 {
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	return synth.HaloSet(n, box, synth.DefaultHaloSpec(), 1)
}

// realCoord is rank 0's coordinator for n clustered particles on eight
// cost-balanced tiles, holding the one field of them.
func realCoord(t testing.TB, n int) *coord {
	t.Helper()
	pts := realCatalog(n)
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(pts)
	return newCoord(spec, makeTiles(spec, pts, 8, false), 1, f)
}

// realBatch is the static batch rank 0 sends the second of three workers
// for n clustered particles: the middle block of the eight tiles, with
// their spans and the slab they cross.
func realBatch(t testing.TB, n int) *assignBatch {
	t.Helper()
	a := realCoord(t, n).batch(shares(8, 3)[1])
	return &a
}

// TestWireMessagesOverWorld sends one value of each renderer message type
// through a real Send/Recv and checks the receiver holds exactly that value.
func TestWireMessagesOverWorld(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			errs := mpi.NewWorld(2).RunEach(func(comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					return comm.Send(1, tagBatch, c.msg)
				}
				got := c.zero()
				if _, err := comm.Recv(0, tagBatch, got); err != nil {
					return err
				}
				if !reflect.DeepEqual(got, c.msg) {
					return fmt.Errorf("sent %+v, received %+v", c.msg, got)
				}
				return nil
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}
