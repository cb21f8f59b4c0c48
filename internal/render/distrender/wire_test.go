package distrender

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
)

// wireCase is one renderer message with a constructor of its zero value
// and its golden encoding in hex.
type wireCase struct {
	name   string
	msg    any
	zero   func() any
	golden string
}

// wireCases are one message of each wire type: the setup broadcast, a
// batch and the shutdown batch, a two-tile frame (one healthy tile with its
// grid and stats, one Err-only tile), and an ack.
func wireCases() []wireCase {
	g := grid.NewGrid2D(2, 1, geom.Vec2{X: 1, Y: -2}, 0.5)
	g.Data[0], g.Data[1] = 1.5, -0.25
	batch := func() any { return new(assignBatch) }
	return []wireCase{
		{"setupMsg", &setupMsg{
			Spec:  render.Spec{Min: geom.Vec2{X: 1, Y: -2}, Nx: 4, Ny: 1, Cell: 0.5, Samples: 2, Seed: 5},
			Tiles: []render.Tile{{I0: 0, I1: 2}, {I0: 2, I1: 4}}, Workers: 2,
			Particles: []geom.Vec3{{X: 1, Y: 2, Z: 3}},
		}, func() any { return new(setupMsg) },
			"13" + hex.EncodeToString([]byte("distrender.setupMsg")) +
				"000000000000f03f" + "00000000000000c0" + "08" + "02" + "000000000000e03f" + // Min, Nx 4, Ny 1, Cell 0.5
				"0000000000000000" + "0000000000000000" + "00" + "04" + "0a" + // ZMin, ZMax, Nz, Samples 2, Seed 5
				"02" + "00" + "04" + "04" + "08" + // two tiles: [0,2), [2,4)
				"04" + // Workers 2
				"01" + "000000000000f03f" + "0000000000000040" + "0000000000000840"}, // one particle
		{"assignBatch", &assignBatch{Tiles: []int{1, 200}}, batch,
			"16" + hex.EncodeToString([]byte("distrender.assignBatch")) + "00" + "02" + "02" + "9003"},
		{"shutdown", &assignBatch{Shutdown: true}, batch,
			"16" + hex.EncodeToString([]byte("distrender.assignBatch")) + "01" + "00"},
		{"treeFrame", &treeFrame{Tiles: []tileResult{
			{Tile: 3, Rank: 4, Grid: g, Stats: []render.WorkerStat{{
				Worker: 1, Busy: time.Millisecond, Cells: 2, Steps: 300,
				Columns: render.OutcomeCounts{Clean: 2, Perturbed: 1},
			}}},
			{Tile: 5, Rank: 4, Err: "march failed"},
		}}, func() any { return new(treeFrame) },
			"14" + hex.EncodeToString([]byte("distrender.treeFrame")) +
				"02" + // two tiles
				"06" + "08" + "00" + // tile 3, rank 4, no error
				"01" + // grid present:
				"04" + "02" + "000000000000f03f" + "00000000000000c0" + "000000000000e03f" + // 2x1 at (1,-2), cell 0.5
				"02" + "000000000000f83f" + "000000000000d0bf" + // 2 words: 1.5, -0.25
				"01" + "02" + "80897a" + "04" + "d804" + "04" + "02" + "00" + "00" + // one stat
				"0a" + "08" + "0c" + hex.EncodeToString([]byte("march failed")) + // tile 5, rank 4
				"00" + "00"}, // no grid, no stats
		{"frameAck", &frameAck{Tiles: []int{3, 4, 5}}, func() any { return new(frameAck) },
			"13" + hex.EncodeToString([]byte("distrender.frameAck")) + "03" + "06" + "08" + "0a"},
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
	f.Add([]byte{})
	header := "\x14distrender.treeFrame"
	f.Add(append([]byte(header), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range wireCases() {
			_ = mpi.Decode(data, c.zero())
		}
	})
}

// TestWireMessagesOverWorld sends one value of each renderer message type
// through a real Send/Recv and checks the receiver holds exactly that value.
func TestWireMessagesOverWorld(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			errs := mpi.NewWorld(2).RunEach(func(comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					return comm.Send(1, tagSetup, c.msg)
				}
				got := c.zero()
				if _, err := comm.Recv(0, tagSetup, got); err != nil {
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
