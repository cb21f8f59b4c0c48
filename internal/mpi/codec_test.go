package mpi

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// header is the hex of a type-name header: uvarint length, then the name.
func header(name string) string {
	return hex.EncodeToString(append([]byte{byte(len(name))}, name...))
}

// f64hex is the little-endian IEEE 754 word of x, in hex.
func f64hex(x float64) string { return hex.EncodeToString(appendF64(nil, x)) }

type pointerMsg struct{ P *float64 }

type innerMsg struct {
	A int
	B string
}

// everyKind has one field of each kind the codec carries.
type everyKind struct {
	B    bool
	I    int
	I8   int8
	U    uint
	U16  uint16
	F    float64
	S    string
	P    *geom.Vec2
	Q    *int
	V    geom.Vec3
	In   innerMsg
	Is   []int
	Ss   []string
	Ins  []innerMsg
	Fs   []float64
	Vs   []geom.Vec3
	Bs   []byte
	Nest [][]float64
}

// goldenCase is one row of the wire-format table: a value, a constructor
// of the receiver's zero value, the exact bytes and, when decoding is not
// the identity, what the receiver holds afterwards.
type goldenCase struct {
	name   string
	msg    any
	zero   func() any
	golden string
	want   any // nil: the decoded value DeepEquals msg
}

func goldenCases() []goldenCase {
	half := 0.5
	nan := math.Float64frombits(0x7ff8000000000001)
	negZero := math.Copysign(0, -1)
	f64s := func() any { return new([]float64) }
	return []goldenCase{
		{"float64s", []float64{1, negZero, math.Inf(-1), nan}, f64s,
			header("[]float64") + "04" + f64hex(1) + f64hex(negZero) + f64hex(math.Inf(-1)) + "010000000000f87f", nil},
		{"vec3s", []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: -1e300, Y: 1e-300}}, func() any { return new([]geom.Vec3) },
			header("[]geom.Vec3") + "02" + f64hex(1) + f64hex(2) + f64hex(3) + f64hex(-1e300) + f64hex(1e-300) + f64hex(0), nil},
		{"bytes", []byte{0, 1, 0x80, 0xff}, func() any { return new([]byte) },
			header("[]uint8") + "04" + "000180ff", nil},
		{"nil-float64s", []float64(nil), f64s, header("[]float64") + "00", nil},
		{"empty-float64s", []float64{}, f64s, header("[]float64") + "00", []float64(nil)},
		{"empty-ints", []int{}, func() any { return new([]int) }, header("[]int") + "00", []int(nil)},
		{"nil-pointer", pointerMsg{}, func() any { return new(pointerMsg) }, header("mpi.pointerMsg") + "00", nil},
		{"pointer", pointerMsg{P: &half}, func() any { return new(pointerMsg) },
			header("mpi.pointerMsg") + "01" + f64hex(0.5), nil},
		{"every-kind", everyKind{
			B: true, I: -3, I8: -128, U: 300, U16: 65535, F: 0.5, S: "hé",
			P: &geom.Vec2{X: 1, Y: 2}, V: geom.Vec3{X: 1, Y: 2, Z: 3},
			In: innerMsg{A: 64, B: "x"}, Is: []int{1, -1}, Ss: []string{"a", ""},
			Ins: []innerMsg{{A: 1}}, Fs: []float64{2}, Vs: []geom.Vec3{{X: 1}},
			Bs: []byte{7}, Nest: [][]float64{{1}, nil},
		}, func() any { return new(everyKind) },
			header("mpi.everyKind") +
				"01" + "05" + "ff01" + "ac02" + "ffff03" + f64hex(0.5) + "0368c3a9" + // B I I8 U U16 F S
				"01" + f64hex(1) + f64hex(2) + "00" + // P, Q = nil
				f64hex(1) + f64hex(2) + f64hex(3) + // V
				"8001" + "0178" + // In
				"02" + "02" + "01" + // Is
				"02" + "0161" + "00" + // Ss
				"01" + "02" + "00" + // Ins
				"01" + f64hex(2) + // Fs
				"01" + f64hex(1) + f64hex(0) + f64hex(0) + // Vs
				"01" + "07" + // Bs
				"02" + "01" + f64hex(1) + "00", // Nest
			nil},
	}
}

// TestCodecGoldenBytes pins the wire format byte for byte, one row per
// kind: the three bulk slices, nil against empty slices, a nil and a
// non-nil pointer, and a struct of every supported kind. Each message
// decodes back to itself (re-encoding it gives the same bytes, which also
// checks NaN payloads and signed zeros), nil and empty slices both decode
// to nil, and every strict prefix is an error that leaves the receiver at
// its zero value.
func TestCodecGoldenBytes(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			enc, err := Encode(nil, c.msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(enc); got != c.golden {
				t.Fatalf("encoding\n got %s\nwant %s", got, c.golden)
			}
			got := c.zero()
			if err := Decode(enc, got); err != nil {
				t.Fatal(err)
			}
			want := c.want
			if want == nil {
				want = c.msg
			}
			if again, _ := Encode(nil, got); !bytes.Equal(again, enc) {
				t.Fatalf("re-encoding the decoded value gave %x", again)
			}
			// DeepEqual fails NaN against itself; re-encoding covered that row.
			if c.name != "float64s" && !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), want) {
				t.Fatalf("round trip: sent %#v, got %#v", c.msg, got)
			}
			if strings.HasPrefix(c.name, "empty") && !reflect.ValueOf(got).Elem().IsNil() {
				t.Fatal("an empty slice must decode to nil")
			}
			for n := range enc {
				got := c.zero()
				if err := Decode(enc[:n], got); err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
				}
				if !reflect.DeepEqual(got, c.zero()) {
					t.Fatalf("prefix of %d/%d bytes left a half-accepted message: %+v", n, len(enc), got)
				}
			}
		})
	}
}

// TestCodecSliceReceiver pins what a top-level slice receiver sees: an
// empty message truncates a non-nil receiver (and leaves a nil one nil), a
// receiver with the capacity is refilled in place, a smaller one is
// replaced, and a failed decode leaves it untouched.
func TestCodecSliceReceiver(t *testing.T) {
	empty, _ := Encode(nil, []float64(nil))
	three, _ := Encode(nil, []float64{1, 2, 3})

	var fresh []float64
	if err := Decode(empty, &fresh); err != nil || fresh != nil {
		t.Fatalf("empty into nil: %v, %v", fresh, err)
	}
	buf := make([]float64, 2, 8)
	if err := Decode(empty, &buf); err != nil || buf == nil || len(buf) != 0 || cap(buf) != 8 {
		t.Fatalf("empty into a non-nil receiver must truncate it: len %d cap %d nil %v, %v", len(buf), cap(buf), buf == nil, err)
	}
	backing := &buf[:1][0]
	if err := Decode(three, &buf); err != nil || len(buf) != 3 || &buf[0] != backing {
		t.Fatalf("a receiver with the capacity must be refilled in place: %v, %v", buf, err)
	}
	small := make([]float64, 1)
	if err := Decode(three, &small); err != nil || !reflect.DeepEqual(small, []float64{1, 2, 3}) {
		t.Fatalf("short receiver: %v, %v", small, err)
	}
	keep := []float64{9, 9}
	if err := Decode(three[:len(three)-1], &keep); err == nil || !reflect.DeepEqual(keep, []float64{9, 9}) {
		t.Fatalf("truncated message touched the receiver: %v, %v", keep, err)
	}
}

// TestCodecPointerFormsAgree pins that value and pointer sends produce the
// same wire bytes (Bcast encodes *v where Send encodes v).
func TestCodecPointerFormsAgree(t *testing.T) {
	for _, v := range []any{[]float64{1, 2, 3}, []geom.Vec3{{X: 1}}, innerMsg{A: 1, B: "b"}} {
		a, err := Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		p := reflect.New(reflect.TypeOf(v))
		p.Elem().Set(reflect.ValueOf(v))
		b, err := Encode(nil, p.Interface())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%T: value and pointer encodings differ: %x vs %x", v, a, b)
		}
	}
}

// TestCodecValueSemantics verifies decoded values never alias the sender's
// value or the wire buffer.
func TestCodecValueSemantics(t *testing.T) {
	in := everyKind{S: "abc", P: &geom.Vec2{X: 1}, Vs: []geom.Vec3{{X: 1, Y: 2, Z: 3}}, Bs: []byte{1, 2}, Fs: []float64{4}}
	data, err := Encode(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var out everyKind
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	out.Vs[0].X, out.P.X, out.Bs[0], out.Fs[0] = 99, 99, 99, 99
	if in.Vs[0].X != 1 || in.P.X != 1 || in.Bs[0] != 1 || in.Fs[0] != 4 {
		t.Fatal("decoded value aliases the sender's value")
	}
	// Decoding must also survive the wire buffer being recycled.
	var out2 everyKind
	if err := Decode(data, &out2); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xff
	}
	if !reflect.DeepEqual(out2, in) {
		t.Fatalf("decoded value aliases the wire buffer: %+v", out2)
	}
}

type withMap struct{ M map[string]int }

type withInterface struct{ X any }

type withUnexported struct {
	A int
	b int
}

type recursive struct{ Next *recursive }

// TestCodecRefusesUnsupportedKinds: a payload outside the codec's closed
// set of kinds is an error at Send — never a panic, never a fallback, and
// nothing reaches the receiver.
func TestCodecRefusesUnsupportedKinds(t *testing.T) {
	bad := []any{
		map[string]int{"a": 1},
		withMap{M: map[string]int{}},
		withInterface{X: 1},
		withUnexported{A: 1, b: 2},
		[2]float64{},
		[]float32{1},
		recursive{},
		[]struct{}{{}},
		make(chan int),
		func() {},
		nil,
		(*innerMsg)(nil),
	}
	w := NewWorld(2)
	c := w.Comm(0)
	for _, v := range bad {
		if err := c.Send(1, 1, v); err == nil {
			t.Errorf("Send(%T) succeeded", v)
		}
	}
	if n := w.TotalMessages(); n != 0 {
		t.Fatalf("%d refused messages were sent", n)
	}
	if err := c.Send(1, 1, withUnexported{}); err == nil || !strings.Contains(err.Error(), "unexported field") {
		t.Fatalf("unexported field error: %v", err)
	}
}

// TestCodecTypeMismatchTaxonomy pins the decode-error contract from the
// robustness PR: a payload decoded into the wrong type surfaces the
// origin rank, the receiving operation, and the target type.
func TestCodecTypeMismatchTaxonomy(t *testing.T) {
	w := NewWorld(2)
	errs := w.RunEach(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 7, []float64{1, 2, 3})
		default:
			var wrong []geom.Vec3
			_, err := c.Recv(0, 7, &wrong)
			if err == nil {
				return fmt.Errorf("decode into wrong type succeeded")
			}
			for _, want := range []string{"decoding message from rank 0", "recv tag 7", "[]geom.Vec3"} {
				if !strings.Contains(err.Error(), want) {
					return fmt.Errorf("error %q missing %q", err, want)
				}
			}
			return nil
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	// Same contract on a struct: the type-name header names the payload,
	// never a misread.
	data, err := Encode(nil, innerMsg{A: 1})
	if err != nil {
		t.Fatal(err)
	}
	var f []float64
	if err := Decode(data, &f); err == nil || !strings.Contains(err.Error(), "mpi.innerMsg") {
		t.Fatalf("type-name mismatch error: %v", err)
	}
}

// TestCodecFastPathsOverWorld runs the bulk payload shapes through real
// Send/Recv and Bcast, checking the receiver observes exactly what was
// sent.
func TestCodecFastPathsOverWorld(t *testing.T) {
	pts := make([]geom.Vec3, 1000)
	for i := range pts {
		pts[i] = geom.Vec3{X: float64(i), Y: float64(2 * i), Z: float64(3 * i)}
	}
	w := NewWorld(3)
	errs := w.RunEach(func(c *Comm) error {
		// A copy per rank: Bcast decodes into the slice's backing array on
		// every rank but the root, which must not be the pts rank 0 reads.
		centers := append([]geom.Vec3(nil), pts[:10]...)
		if err := c.Bcast(0, &centers); err != nil {
			return err
		}
		if len(centers) != 10 || centers[9] != pts[9] {
			return fmt.Errorf("bcast centers corrupted: %v", centers)
		}
		switch c.Rank() {
		case 0:
			for dst := 1; dst < 3; dst++ {
				if err := c.Send(dst, 1, pts); err != nil {
					return err
				}
				if err := c.Send(dst, 2, []float64{1, 2, 3}); err != nil {
					return err
				}
			}
		default:
			var got []geom.Vec3
			if _, err := c.Recv(0, 1, &got); err != nil {
				return err
			}
			if len(got) != len(pts) || got[999] != pts[999] {
				return fmt.Errorf("Vec3 payload corrupted")
			}
			var f []float64
			if _, err := c.Recv(0, 2, &f); err != nil {
				return err
			}
			if len(f) != 3 || f[2] != 3 {
				return fmt.Errorf("float64 payload corrupted")
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// The shapes of the production messages, for the fuzz target: mpi cannot
// import the packages that send them, so each is mirrored field for field
// (render and grid types are used as they are). The wire body depends only
// on the shape, so these decode exactly the bodies production encodes.
type (
	setupMsg struct {
		Spec      render.Spec
		Tiles     []render.Tile
		Workers   int
		Particles []geom.Vec3
	}
	tileResult struct {
		Tile  int
		Rank  int
		Err   string
		Grid  *grid.Grid2D
		Stats []render.WorkerStat
	}
	assignBatch struct {
		Shutdown bool
		Tiles    []int
	}
	treeFrame   struct{ Tiles []tileResult }
	frameAck    struct{ Tiles []int }
	workPackage struct {
		Centers []geom.Vec3
		Points  []geom.Vec3
	}
	heartbeat struct {
		Rank, Ward, Done     int
		PredDone, ActualDone float64
		Finished, NoCkpt     bool
	}
	control  struct{ Kind, Ward, From int }
	ckptMeta struct {
		Centers   []geom.Vec3
		Sample    geom.Vec3
		HasSample bool
	}
	sample struct{ N, TTri, TRender float64 }
	packet struct {
		Owned []geom.Vec3
		Ghost []geom.Vec3
	}
)

// productionShapes returns one value of each production message shape and
// the receiver constructor the fuzz target decodes into.
func productionShapes() []struct {
	msg  any
	zero func() any
} {
	g := grid.NewGrid2D(2, 1, geom.Vec2{X: 1, Y: -2}, 0.5)
	g.Data[0], g.Data[1] = 1.5, -0.25
	pts := []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: 4}}
	return []struct {
		msg  any
		zero func() any
	}{
		{setupMsg{Spec: render.Spec{Nx: 4, Ny: 2, Cell: 0.25, Samples: 2, Seed: 5}, Tiles: []render.Tile{{I0: 0, I1: 2}, {I0: 2, I1: 4}}, Workers: 2, Particles: pts},
			func() any { return new(setupMsg) }},
		{assignBatch{Tiles: []int{1, 200}}, func() any { return new(assignBatch) }},
		{treeFrame{Tiles: []tileResult{
			{Tile: 3, Rank: 4, Grid: g, Stats: []render.WorkerStat{{Worker: 1, Busy: time.Millisecond, Cells: 2, Steps: 300}}},
			{Tile: 5, Rank: 4, Err: "march failed"},
		}}, func() any { return new(treeFrame) }},
		{frameAck{Tiles: []int{3, 4, 5}}, func() any { return new(frameAck) }},
		{workPackage{Centers: pts[:1], Points: pts}, func() any { return new(workPackage) }},
		{heartbeat{Rank: 2, Ward: -1, Done: 7, PredDone: 0.5, ActualDone: 0.75, Finished: true}, func() any { return new(heartbeat) }},
		{control{Kind: 1, Ward: 3, From: 2}, func() any { return new(control) }},
		{ckptMeta{Centers: pts, Sample: pts[0], HasSample: true}, func() any { return new(ckptMeta) }},
		{[]sample{{N: 100, TTri: 0.1, TRender: 0.2}, {}}, func() any { return new([]sample) }},
		{[]float64{1.5, 2.5}, func() any { return new([]float64) }},
		{[]packet{{Owned: pts}, {Ghost: pts[1:]}}, func() any { return new([]packet) }},
	}
}

// FuzzCodecDecode: arbitrary wire bytes must never panic the decoder or
// over-allocate on implausible counts, whatever type they are decoded
// into. Each input is decoded whole into every production message shape,
// and its body (after a well-formed header) into every shape as well, so a
// frame's bytes also exercise the batch and ack decoders. The testdata
// corpus holds the renderer's batch, frame and ack as production encodes
// them, header included.
func FuzzCodecDecode(f *testing.F) {
	shapes := productionShapes()
	for _, s := range shapes {
		seed, err := Encode(nil, s.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x09, '[', ']', 'f', 'l', 'o', 'a', 't', '6', '4', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := reader{data: data}
		_, herr := r.bytes()
		for _, s := range shapes {
			_ = Decode(data, s.zero())
			if herr == nil {
				body := r
				_ = decodeBody(&body, reflect.ValueOf(s.zero()).Elem())
			}
		}
	})
}

func benchPayloadVec3(n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: float64(i) * 0.5, Y: float64(i) * 0.25, Z: float64(i) * 0.125}
	}
	return pts
}

func BenchmarkCodecEncodeVec3Fast(b *testing.B) {
	pts := benchPayloadVec3(4096)
	b.ReportAllocs()
	b.SetBytes(int64(24 * len(pts)))
	for i := 0; i < b.N; i++ {
		data, err := Encode(getBuf(), pts)
		if err != nil {
			b.Fatal(err)
		}
		releaseBuf(data)
	}
}

func BenchmarkCodecDecodeVec3Fast(b *testing.B) {
	pts := benchPayloadVec3(4096)
	data, err := Encode(nil, pts)
	if err != nil {
		b.Fatal(err)
	}
	var out []geom.Vec3
	b.ReportAllocs()
	b.SetBytes(int64(24 * len(pts)))
	for i := 0; i < b.N; i++ {
		if err := Decode(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRoundTripFloat64Fast(b *testing.B) {
	v := make([]float64, 4096)
	for i := range v {
		v[i] = float64(i)
	}
	var out []float64
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(v)))
	for i := 0; i < b.N; i++ {
		data, err := Encode(getBuf(), v)
		if err != nil {
			b.Fatal(err)
		}
		if err := Decode(data, &out); err != nil {
			b.Fatal(err)
		}
		releaseBuf(data)
	}
}

// BenchmarkCodecRoundTripHeartbeat times the small-struct walk: a
// seven-field heartbeat encoded and decoded.
func BenchmarkCodecRoundTripHeartbeat(b *testing.B) {
	hb := heartbeat{Rank: 2, Ward: -1, Done: 7, PredDone: 0.5, ActualDone: 0.75, Finished: true}
	var out heartbeat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := Encode(getBuf(), hb)
		if err != nil {
			b.Fatal(err)
		}
		if err := Decode(data, &out); err != nil {
			b.Fatal(err)
		}
		releaseBuf(data)
	}
}

// BenchmarkCodecRoundTripWorkPackage times the largest pipeline message:
// 5 000 points and their centres.
func BenchmarkCodecRoundTripWorkPackage(b *testing.B) {
	pts := benchPayloadVec3(5000)
	p := workPackage{Centers: pts[:50], Points: pts}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := Encode(getBuf(), p)
		if err != nil {
			b.Fatal(err)
		}
		var out workPackage
		if err := Decode(data, &out); err != nil {
			b.Fatal(err)
		}
		releaseBuf(data)
	}
}
