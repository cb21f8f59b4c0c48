// Package model implements the paper's runtime workload models (Section
// IV-C): the triangulation-time model f_tri(n) = c·n·log2(n) fit by
// ordinary least squares (eqs 15–16) and the interpolation-time model
// f_interp(n) = α·n^β fit by Gauss–Newton nonlinear least squares with a
// log-log linear initial guess (eq 17).
package model

import (
	"errors"
	"math"
)

// TriModel predicts triangulation time from particle count:
// f(n) = C · n · log2(n).
type TriModel struct {
	C float64
}

// Predict returns the modeled triangulation time for n particles.
func (m TriModel) Predict(n float64) float64 {
	if n < 2 {
		n = 2
	}
	return m.C * n * math.Log2(n)
}

// FitTri fits the single-parameter model by OLS: with basis x = n·log2(n),
// c = (XᵀX)⁻¹ Xᵀ t = Σ xᵢtᵢ / Σ xᵢ².
func FitTri(n, t []float64) (TriModel, error) {
	if len(n) != len(t) || len(n) == 0 {
		return TriModel{}, errors.New("model: need equal-length non-empty samples")
	}
	var sxx, sxt float64
	for i := range n {
		if n[i] < 2 || t[i] < 0 {
			continue
		}
		x := n[i] * math.Log2(n[i])
		sxx += x * x
		sxt += x * t[i]
	}
	if sxx == 0 {
		return TriModel{}, errors.New("model: degenerate triangulation samples")
	}
	return TriModel{C: sxt / sxx}, nil
}

// PowerModel predicts interpolation time from particle count:
// f(n) = Alpha · n^Beta.
type PowerModel struct {
	Alpha, Beta float64
}

// Predict returns the modeled interpolation time for n particles.
func (m PowerModel) Predict(n float64) float64 {
	if n < 1 {
		n = 1
	}
	return m.Alpha * math.Pow(n, m.Beta)
}

// FitPower fits α·n^β. The initial guess comes from a linear fit of
// log(t) against log(n); Gauss–Newton then minimizes the (non-log)
// residuals, matching the paper's procedure. On timings noisy enough that
// Gauss–Newton leaves the domain (NaN, or α <= 0) the result is the
// log-log fit itself, which is always finite with α > 0: a calibration on a
// loaded host gets a coarser model, not an error.
func FitPower(n, t []float64) (PowerModel, error) {
	var xs, ts []float64
	for i := range n {
		if i < len(t) && n[i] >= 1 && t[i] > 0 {
			xs = append(xs, n[i])
			ts = append(ts, t[i])
		}
	}
	if len(xs) < 2 {
		return PowerModel{}, errors.New("model: need at least 2 positive samples")
	}
	// Log-log OLS initial guess: log t = log α + β log n.
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ts[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	N := float64(len(xs))
	den := N*sxx - sx*sx
	var alpha, beta float64
	if den == 0 {
		// All n identical: degenerate slope; use mean ratio with β = 1.
		beta = 1
		alpha = mean(ts) / mean(xs)
	} else {
		beta = (N*sxy - sx*sy) / den
		alpha = math.Exp((sy - beta*sx) / N)
	}
	seed := PowerModel{Alpha: alpha, Beta: beta}

	// Gauss–Newton on r_i = t_i - α n_i^β with Jacobian columns
	// ∂f/∂α = n^β, ∂f/∂β = α n^β ln n.
	for iter := 0; iter < 60; iter++ {
		var jtj00, jtj01, jtj11, jtr0, jtr1 float64
		for i := range xs {
			nb := math.Pow(xs[i], beta)
			f := alpha * nb
			r := ts[i] - f
			j0 := nb
			j1 := alpha * nb * math.Log(xs[i])
			jtj00 += j0 * j0
			jtj01 += j0 * j1
			jtj11 += j1 * j1
			jtr0 += j0 * r
			jtr1 += j1 * r
		}
		det := jtj00*jtj11 - jtj01*jtj01
		if det == 0 || math.IsNaN(det) {
			break
		}
		da := (jtj11*jtr0 - jtj01*jtr1) / det
		db := (jtj00*jtr1 - jtj01*jtr0) / det
		// Damped step to keep α positive and β sane.
		lambda := 1.0
		for k := 0; k < 20 && (alpha+lambda*da <= 0 || math.Abs(beta+lambda*db) > 10); k++ {
			lambda /= 2
		}
		alpha += lambda * da
		beta += lambda * db
		if math.Abs(lambda*da) < 1e-12*math.Abs(alpha)+1e-15 &&
			math.Abs(lambda*db) < 1e-12*math.Abs(beta)+1e-15 {
			break
		}
	}
	if math.IsNaN(alpha) || math.IsNaN(beta) || alpha <= 0 {
		return seed, nil
	}
	return PowerModel{Alpha: alpha, Beta: beta}, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WorkModel bundles both phase models; Predict is the per-item total used
// by the work-sharing scheduler.
type WorkModel struct {
	Tri    TriModel
	Interp PowerModel
}

// Predict returns the modeled total time (triangulate + render) for a work
// item with n particles.
func (m WorkModel) Predict(n float64) float64 {
	return m.Tri.Predict(n) + m.Interp.Predict(n)
}

// Fit fits both models from per-sample particle counts and phase timings.
func Fit(n, tTri, tInterp []float64) (WorkModel, error) {
	tri, err := FitTri(n, tTri)
	if err != nil {
		return WorkModel{}, err
	}
	pw, err := FitPower(n, tInterp)
	if err != nil {
		return WorkModel{}, err
	}
	return WorkModel{Tri: tri, Interp: pw}, nil
}
