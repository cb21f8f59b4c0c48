// Package geom provides the small computational-geometry substrate used by
// the DTFE surface-density kernel: 3D/2D vectors, axis-aligned boxes, dense
// 3x3 linear solves, Plücker line coordinates (Platis & Theoharis ray-tet
// tests), and robust geometric predicates (orientation, in-sphere,
// in-circle) with an exact arbitrary-precision fallback.
package geom

import "math"

// Vec3 is a point or vector in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// Vec2 is a point or vector in R^2.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// XY projects v onto the x-y plane (the paper's line-of-sight projection,
// integration being along +z).
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// IsFinite reports whether every component is a finite number. The exact
// predicates require finite inputs (NaN/Inf have no big.Rat image), so
// every layer that feeds them validates with this first.
func (v Vec3) IsFinite() bool {
	return finite(v.X) && finite(v.Y) && finite(v.Z)
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s*v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the inner product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar cross product (z component of v×w).
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// IsFinite reports whether both components are finite numbers.
func (v Vec2) IsFinite() bool { return finite(v.X) && finite(v.Y) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// AABB is an axis-aligned bounding box in R^3.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns a box that contains nothing: Min at +inf, Max at -inf.
// Extending it with points yields their bounding box.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// BoundsOf returns the bounding box of pts (the empty box for no points).
func BoundsOf(pts []Vec3) AABB {
	b := EmptyAABB()
	for _, p := range pts {
		b.Extend(p)
	}
	return b
}

// Extend grows the box to include p.
func (b *AABB) Extend(p Vec3) {
	b.Min.X = math.Min(b.Min.X, p.X)
	b.Min.Y = math.Min(b.Min.Y, p.Y)
	b.Min.Z = math.Min(b.Min.Z, p.Z)
	b.Max.X = math.Max(b.Max.X, p.X)
	b.Max.Y = math.Max(b.Max.Y, p.Y)
	b.Max.Z = math.Max(b.Max.Z, p.Z)
}

// Union grows the box to include the box o.
func (b *AABB) Union(o AABB) {
	b.Extend(o.Min)
	b.Extend(o.Max)
}

// Contains reports whether p lies inside the closed box.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Clamp projects p onto the closed box (the nearest point inside).
func (b AABB) Clamp(p Vec3) Vec3 {
	return Vec3{
		X: math.Min(math.Max(p.X, b.Min.X), b.Max.X),
		Y: math.Min(math.Max(p.Y, b.Min.Y), b.Max.Y),
		Z: math.Min(math.Max(p.Z, b.Min.Z), b.Max.Z),
	}
}

// Size returns the box edge lengths.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Center returns the box center.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Diagonal returns the length of the box diagonal.
func (b AABB) Diagonal() float64 { return b.Size().Norm() }

// Empty reports whether the box contains no points (inverted extents).
func (b AABB) Empty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Solve3 solves the 3x3 linear system A·x = rhs where A's rows are r0, r1,
// r2, by Cramer's rule. ok is false when the matrix is (numerically)
// singular.
func Solve3(r0, r1, r2, rhs Vec3) (x Vec3, ok bool) {
	det := r0.Dot(r1.Cross(r2))
	if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
		return Vec3{}, false
	}
	inv := 1.0 / det
	det3 := func(a, b, c Vec3) float64 { return a.Dot(b.Cross(c)) }
	x.X = det3(Vec3{rhs.X, r0.Y, r0.Z}, Vec3{rhs.Y, r1.Y, r1.Z}, Vec3{rhs.Z, r2.Y, r2.Z}) * inv
	x.Y = det3(Vec3{r0.X, rhs.X, r0.Z}, Vec3{r1.X, rhs.Y, r1.Z}, Vec3{r2.X, rhs.Z, r2.Z}) * inv
	x.Z = det3(Vec3{r0.X, r0.Y, rhs.X}, Vec3{r1.X, r1.Y, rhs.Y}, Vec3{r2.X, r2.Y, rhs.Z}) * inv
	return x, true
}

// TetVolume returns the signed volume of the tetrahedron (a,b,c,d):
// det[b-a, c-a, d-a]/6, positive when the tetrahedron is positively
// oriented (Orient3D(a,b,c,d) > 0).
func TetVolume(a, b, c, d Vec3) float64 {
	return b.Sub(a).Dot(c.Sub(a).Cross(d.Sub(a))) / 6.0
}
