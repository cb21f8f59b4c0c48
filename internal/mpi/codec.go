package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"godtfe/internal/geom"
)

// The wire codec. A message is the concrete type's name (uvarint length,
// then the bytes: the decode-side identity check) followed by a
// depth-first walk of the value over a closed set of kinds:
//
//	bool       one byte, 0 or 1
//	intN       zigzag varint
//	uintN      uvarint
//	float64    8 bytes, little-endian IEEE 754
//	string     uvarint length, then the bytes
//	pointer    presence byte, then the pointee when it is 1
//	struct     its fields in declaration order; every field exported
//	slice      uvarint count, then the elements
//
// []float64 and []geom.Vec3 are written as one block — the walk's own
// bytes, without reflecting per element: particle blocks, centre lists,
// work packages and grid data are where the bytes are — and []byte as raw
// bytes. Anything else (map, interface, array, chan, func, float32, an
// unexported field, a recursive type) is an error at Send, never a fallback.
//
// Decoded values share no memory with the wire buffer. Nil and empty slices
// both decode to nil, but a non-nil top-level slice receiver is truncated,
// or refilled in place when it has the capacity (Bcast into &centers). A
// fresh value is decoded and assigned only on success, so a truncated or
// mistyped message is an error that leaves the receiver untouched.

// bufPool recycles encode buffers for point-to-point sends. An envelope
// whose data came from the pool is flagged and released after decode;
// collective payloads shared across receivers are never pooled.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// maxPooledBuf bounds the capacity kept in the pool so one huge message
// doesn't pin its buffer forever.
const maxPooledBuf = 1 << 22

func getBuf() []byte {
	bp := bufPool.Get().(*[]byte)
	return (*bp)[:0]
}

func releaseBuf(data []byte) {
	if c := cap(data); c > 0 && c <= maxPooledBuf {
		b := data[:0]
		bufPool.Put(&b)
	}
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func readF64(data []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data))
}

// AppendVec3s appends a []geom.Vec3 block (count + coordinates) to buf.
func AppendVec3s(buf []byte, v []geom.Vec3) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for i := range v {
		buf = appendF64(appendF64(appendF64(buf, v[i].X), v[i].Y), v[i].Z)
	}
	return buf
}

// ReadVec3s decodes an AppendVec3s block from data into *v (reusing its
// capacity, always copying) and returns the remainder of data.
func ReadVec3s(data []byte, v *[]geom.Vec3) ([]byte, error) {
	s, body, err := readBlock(data, *v, 24)
	if err != nil {
		return nil, err
	}
	for i := range s {
		s[i] = geom.Vec3{X: readF64(body[i*24:]), Y: readF64(body[i*24+8:]), Z: readF64(body[i*24+16:])}
	}
	*v = s
	return body[len(s)*24:], nil
}

// AppendFloat64s appends a []float64 block (count + words) to buf.
func AppendFloat64s(buf []byte, v []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = appendF64(buf, x)
	}
	return buf
}

// ReadFloat64s decodes an AppendFloat64s block into *v and returns the
// remainder of data.
func ReadFloat64s(data []byte, v *[]float64) ([]byte, error) {
	s, body, err := readBlock(data, *v, 8)
	if err != nil {
		return nil, err
	}
	for i := range s {
		s[i] = readF64(body[i*8:])
	}
	*v = s
	return body[len(s)*8:], nil
}

// readBlock reads a block's count, checks that count words of width bytes
// follow it, and returns s resized to count (reusing its capacity; zero
// truncates a non-nil s and keeps a nil one nil) with the words.
func readBlock[T any](data []byte, s []T, width int) ([]T, []byte, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > uint64(len(data)-used)/uint64(width) {
		return nil, nil, fmt.Errorf("codec: truncated %d-byte word block", width)
	}
	if cap(s) < int(n) {
		s = make([]T, n)
	} else if s != nil {
		s = s[:n]
	}
	return s, data[used:], nil
}

// Encode appends the wire message for v to buf. A pointer is sent as its
// pointee, so Send(&x) and Send(x) put the same bytes on the wire.
func Encode(buf []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	switch {
	case !rv.IsValid():
		return buf, errors.New("codec: cannot encode a nil interface")
	case rv.Kind() == reflect.Pointer:
		if rv.IsNil() {
			return buf, fmt.Errorf("codec: cannot encode a nil %s", rv.Type())
		}
		rv = rv.Elem()
	}
	if err := check(rv.Type()); err != nil {
		return buf, err
	}
	name := rv.Type().String()
	buf = append(binary.AppendUvarint(buf, uint64(len(name))), name...)
	return encodeValue(buf, rv), nil
}

// Decode decodes an Encode message into v, a non-nil pointer to a value of
// the type the message was encoded from.
func Decode(data []byte, v any) error {
	dst := reflect.ValueOf(v)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return fmt.Errorf("codec: decode target %T is not a non-nil pointer", v)
	}
	dst = dst.Elem()
	r := reader{data: data}
	if name, err := r.bytes(); err != nil || string(name) != dst.Type().String() {
		return fmt.Errorf("codec: payload of type %q cannot decode into %s", name, dst.Type())
	}
	return decodeBody(&r, dst)
}

// decodeBody decodes the rest of r into a fresh value and assigns it to
// dst only on success.
func decodeBody(r *reader, dst reflect.Value) error {
	t := dst.Type()
	if err := check(t); err != nil {
		return err
	}
	fresh := reflect.New(t).Elem()
	if err := decodeValue(r, fresh); err != nil {
		return fmt.Errorf("codec: %s: %w", t, err)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("codec: %d trailing bytes after %s", len(r.data), t)
	}
	if t.Kind() == reflect.Slice && !dst.IsNil() && fresh.Len() <= dst.Cap() {
		fresh = reflect.AppendSlice(dst.Slice(0, 0), fresh) // refill in place
	}
	dst.Set(fresh)
	return nil
}

var (
	float64sType = reflect.TypeOf([]float64(nil))
	vec3sType    = reflect.TypeOf([]geom.Vec3(nil))
	checked      sync.Map // reflect.Type → true, for the wire types seen
)

// check reports whether every value of t can cross the wire.
func check(t reflect.Type) error {
	if _, ok := checked.Load(t); ok {
		return nil
	}
	if err := wireCheck(t, map[reflect.Type]bool{}); err != nil {
		return fmt.Errorf("codec: %s: %w", t, err)
	}
	checked.Store(t, true)
	return nil
}

// wireCheck reports why t is not a wire type. A struct needs a field, so
// every wire value takes at least one byte and the bytes left bound every
// count. open holds the types being checked further up, so a recursive
// type is refused instead of looping.
func wireCheck(t reflect.Type, open map[reflect.Type]bool) error {
	if open[t] {
		return fmt.Errorf("recursive type %s", t)
	}
	open[t] = true
	defer delete(open, t)
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return nil
	case reflect.Pointer, reflect.Slice:
		return wireCheck(t.Elem(), open)
	case reflect.Struct:
		if t.NumField() == 0 {
			return fmt.Errorf("%s has no fields", t)
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("unexported field %s.%s", t, f.Name)
			}
			if err := wireCheck(f.Type, open); err != nil {
				return fmt.Errorf("field %s.%s: %w", t, f.Name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("%s is a %s, not a wire kind", t, t.Kind())
}

// encodeValue appends v, of a checked type, to buf.
func encodeValue(buf []byte, v reflect.Value) []byte {
	switch v.Type() {
	case float64sType:
		return AppendFloat64s(buf, v.Interface().([]float64))
	case vec3sType:
		return AppendVec3s(buf, v.Interface().([]geom.Vec3))
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(buf, v.Uint())
	case reflect.Float64:
		return appendF64(buf, v.Float())
	case reflect.String:
		return append(binary.AppendUvarint(buf, uint64(v.Len())), v.String()...)
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0)
		}
		return encodeValue(append(buf, 1), v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = encodeValue(buf, v.Field(i))
		}
	case reflect.Slice:
		buf = binary.AppendUvarint(buf, uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(buf, v.Bytes()...)
		}
		for i := 0; i < v.Len(); i++ {
			buf = encodeValue(buf, v.Index(i))
		}
	}
	return buf
}

// decodeValue reads one value of v's checked type from r into v, a zero
// value.
func decodeValue(r *reader, v reflect.Value) (err error) {
	switch v.Type() {
	case float64sType:
		r.data, err = ReadFloat64s(r.data, v.Addr().Interface().(*[]float64))
		return err
	case vec3sType:
		r.data, err = ReadVec3s(r.data, v.Addr().Interface().(*[]geom.Vec3))
		return err
	}
	switch v.Kind() {
	case reflect.Bool, reflect.Pointer:
		b, err := r.take(1)
		switch {
		case err != nil || b[0] > 1:
			return errTruncated
		case b[0] == 0:
			return nil
		}
		if v.Kind() == reflect.Bool {
			v.SetBool(true)
			return nil
		}
		p := reflect.New(v.Type().Elem())
		if err := decodeValue(r, p.Elem()); err != nil {
			return err
		}
		v.Set(p)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(r.data)
		if n <= 0 || v.OverflowInt(x) {
			return errTruncated
		}
		r.data = r.data[n:]
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, n := binary.Uvarint(r.data)
		if n <= 0 || v.OverflowUint(x) {
			return errTruncated
		}
		r.data = r.data[n:]
		v.SetUint(x)
	case reflect.Float64:
		b, err := r.take(8)
		if err == nil {
			v.SetFloat(readF64(b))
		}
		return err
	case reflect.String:
		b, err := r.bytes()
		if err == nil {
			v.SetString(string(b))
		}
		return err
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := decodeValue(r, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := r.bytes()
			if err == nil && len(b) > 0 {
				v.SetBytes(append([]byte(nil), b...))
			}
			return err
		}
		n, err := r.count()
		if err != nil || n == 0 {
			return err
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			if err := decodeValue(r, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	}
	return nil
}

// reader walks a message; every read is bounds-checked.
type reader struct{ data []byte }

var errTruncated = errors.New("truncated or malformed message")

func (r *reader) take(n int) ([]byte, error) {
	if n > len(r.data) {
		return nil, errTruncated
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b, nil
}

// count reads a uvarint count no larger than the bytes left.
func (r *reader) count() (int, error) {
	n, used := binary.Uvarint(r.data)
	if used <= 0 || n > uint64(len(r.data)-used) {
		return 0, errTruncated
	}
	r.data = r.data[used:]
	return int(n), nil
}

// bytes reads a count-prefixed byte string, aliasing the message.
func (r *reader) bytes() ([]byte, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	return r.take(n)
}
