package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitTriRecoversCoefficient(t *testing.T) {
	const c = 3.5e-6
	var ns, ts []float64
	for n := 100.0; n < 100000; n *= 1.7 {
		ns = append(ns, n)
		ts = append(ts, c*n*math.Log2(n))
	}
	m, err := FitTri(ns, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.C-c)/c > 1e-12 {
		t.Fatalf("C = %v, want %v", m.C, c)
	}
	if p := m.Predict(5000); math.Abs(p-c*5000*math.Log2(5000)) > 1e-9 {
		t.Fatalf("predict = %v", p)
	}
}

func TestFitTriNoisy(t *testing.T) {
	const c = 2e-6
	rng := rand.New(rand.NewSource(1))
	var ns, ts []float64
	for i := 0; i < 200; i++ {
		n := 100 + rng.Float64()*50000
		ns = append(ns, n)
		ts = append(ts, c*n*math.Log2(n)*(1+0.1*rng.NormFloat64()))
	}
	m, err := FitTri(ns, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.C-c)/c > 0.05 {
		t.Fatalf("noisy C = %v, want ~%v", m.C, c)
	}
}

func TestFitPowerRecoversExactly(t *testing.T) {
	const alpha, beta = 4e-7, 1.31
	var ns, ts []float64
	for n := 50.0; n < 200000; n *= 2 {
		ns = append(ns, n)
		ts = append(ts, alpha*math.Pow(n, beta))
	}
	m, err := FitPower(ns, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-alpha)/alpha > 1e-6 || math.Abs(m.Beta-beta) > 1e-8 {
		t.Fatalf("fit = %+v, want %v, %v", m, alpha, beta)
	}
}

func TestFitPowerNoisy(t *testing.T) {
	const alpha, beta = 1e-6, 1.2
	rng := rand.New(rand.NewSource(2))
	var ns, ts []float64
	for i := 0; i < 300; i++ {
		n := 100 + rng.Float64()*80000
		ns = append(ns, n)
		ts = append(ts, alpha*math.Pow(n, beta)*(1+0.15*rng.NormFloat64()))
	}
	m, err := FitPower(ns, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta-beta) > 0.05 {
		t.Fatalf("beta = %v, want ~%v", m.Beta, beta)
	}
}

func TestFitPowerGaussNewtonImprovesOverLogInit(t *testing.T) {
	// Multiplicative-noise-free but additive-noise data: the log-log fit
	// is biased; Gauss-Newton on raw residuals must not be worse.
	const alpha, beta = 1e-5, 1.4
	rng := rand.New(rand.NewSource(3))
	var ns, ts []float64
	for i := 0; i < 200; i++ {
		n := 1000 + rng.Float64()*50000
		ns = append(ns, n)
		ts = append(ts, alpha*math.Pow(n, beta)+0.002*rng.Float64())
	}
	m, err := FitPower(ns, ts)
	if err != nil {
		t.Fatal(err)
	}
	var sse float64
	for i := range ns {
		r := ts[i] - m.Predict(ns[i])
		sse += r * r
	}
	// Compare against pure log-log fit.
	var sx, sy, sxx, sxy float64
	for i := range ns {
		lx, ly := math.Log(ns[i]), math.Log(ts[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	N := float64(len(ns))
	b0 := (N*sxy - sx*sy) / (N*sxx - sx*sx)
	a0 := math.Exp((sy - b0*sx) / N)
	var sse0 float64
	for i := range ns {
		r := ts[i] - a0*math.Pow(ns[i], b0)
		sse0 += r * r
	}
	if sse > sse0*1.0001 {
		t.Fatalf("Gauss-Newton SSE %v worse than log-init %v", sse, sse0)
	}
}

func TestFitDegenerateInputs(t *testing.T) {
	if _, err := FitTri(nil, nil); err == nil {
		t.Error("empty tri fit accepted")
	}
	if _, err := FitTri([]float64{1}, []float64{2, 3}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitPower([]float64{10}, []float64{1}); err == nil {
		t.Error("single sample power fit accepted")
	}
	if _, err := FitPower([]float64{10, 20}, []float64{0, 0}); err == nil {
		t.Error("all-zero times accepted")
	}
	// Identical n values: degenerate slope path.
	m, err := FitPower([]float64{100, 100, 100}, []float64{1, 1.1, 0.9})
	if err != nil {
		t.Fatalf("identical-n fit: %v", err)
	}
	if m.Predict(100) <= 0 {
		t.Fatalf("identical-n predict = %v", m.Predict(100))
	}
}

func TestWorkModelCombines(t *testing.T) {
	var ns, tt, ti []float64
	for n := 100.0; n < 50000; n *= 2 {
		ns = append(ns, n)
		tt = append(tt, 1e-6*n*math.Log2(n))
		ti = append(ti, 2e-6*math.Pow(n, 1.1))
	}
	wm, err := Fit(ns, tt, ti)
	if err != nil {
		t.Fatal(err)
	}
	want := wm.Tri.Predict(3000) + wm.Interp.Predict(3000)
	if got := wm.Predict(3000); got != want {
		t.Fatalf("combined predict %v != %v", got, want)
	}
	if wm.Predict(3000) <= 0 {
		t.Fatal("predict must be positive")
	}
}

func TestPredictClamps(t *testing.T) {
	m := TriModel{C: 1}
	if m.Predict(0) < 0 {
		t.Fatal("negative prediction for n=0")
	}
	p := PowerModel{Alpha: 1, Beta: 2}
	if p.Predict(0) != 1 {
		t.Fatalf("power predict clamp = %v", p.Predict(0))
	}
}

// TestFitPowerDivergenceFallsBackToLogFit: eight timings of the kind a
// loaded host produces (one 4x outlier), on which Gauss–Newton steps out of
// the domain. FitPower used to return "power fit diverged" here, which
// failed a whole calibration; it now returns the log-log fit it started
// from.
func TestFitPowerDivergenceFallsBackToLogFit(t *testing.T) {
	ns := []float64{2937, 2131, 2590, 744, 139, 1261, 4156, 1578}
	ts := []float64{0.006002288628908119, 0.004497409904839431, 0.0176590632393109, 0.001853244392929896,
		0.00013958025869574754, 0.001171854326305174, 0.0027411339780388216, 0.004161934464878294}
	m, err := FitPower(ns, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !(m.Alpha > 0) || math.IsInf(m.Alpha, 0) || math.IsNaN(m.Beta) || math.IsInf(m.Beta, 0) {
		t.Fatalf("fit = %+v, want finite with Alpha > 0", m)
	}
	// The log-log OLS line through these samples.
	if math.Abs(m.Beta-1.1424) > 1e-4 {
		t.Errorf("beta = %v, want the log-log slope 1.1424", m.Beta)
	}
	for i, n := range ns {
		if p := m.Predict(n); p < ts[i]/8 || p > ts[i]*8 {
			t.Errorf("Predict(%v) = %v, sample %v", n, p, ts[i])
		}
	}
}
