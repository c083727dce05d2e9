package rpca

import (
	"errors"
	"math"
	"testing"

	"netconstant/internal/mat"
	"netconstant/internal/stats"
)

// rank1Spiky builds A = row-constant rank-1 matrix + sparse spikes, the
// TP-matrix shape the pipeline feeds the solvers.
func rank1Spiky(r, c int, seed int64, spikeProb float64) (a, truth *mat.Dense) {
	rng := stats.NewRNG(seed)
	row := make([]float64, c)
	for j := range row {
		row[j] = 1 + 9*rng.Float64()
	}
	truth = mat.NewDense(r, c)
	a = mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			truth.Set(i, j, row[j])
			v := row[j]
			if rng.Float64() < spikeProb {
				v *= 1 + 3*rng.Float64()
			}
			a.Set(i, j, v)
		}
	}
	return a, truth
}

func TestDecomposeRejectsNonFinite(t *testing.T) {
	for name, v := range map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "-inf": math.Inf(-1)} {
		a := mat.NewDense(3, 4)
		a.Set(1, 2, v)
		if _, err := Decompose(a, Options{}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Decompose err = %v, want ErrNonFinite", name, err)
		}
		mask := mat.NewDense(3, 4)
		mask.Apply(func(int, int, float64) float64 { return 1 })
		if _, err := DecomposeMasked(a, mask, Options{}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: DecomposeMasked err = %v, want ErrNonFinite", name, err)
		}
		var nfe *NonFiniteError
		_, err := Decompose(a, Options{})
		if !errors.As(err, &nfe) || nfe.Row != 1 || nfe.Col != 2 {
			t.Errorf("%s: position %+v", name, nfe)
		}
	}
}

func TestDecomposeMaskedRecoversThroughGaps(t *testing.T) {
	a, truth := rank1Spiky(10, 36, 7, 0.1)
	rng := stats.NewRNG(8)
	mask := mat.NewDense(10, 36)
	hidden := 0
	mask.Apply(func(i, j int, _ float64) float64 {
		if rng.Float64() < 0.2 {
			hidden++
			return 0
		}
		return 1
	})
	if hidden == 0 {
		t.Fatal("no cells hidden")
	}
	// Zero-fill the hidden cells — what a calibration with missing probes
	// actually hands over.
	holed := a.Clone()
	holed.Apply(func(i, j int, v float64) float64 {
		if mask.At(i, j) < 0.5 {
			return 0
		}
		return v
	})

	res, err := DecomposeMasked(holed, mask, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("masked solver did not converge")
	}
	maskedErr := relErrVs(res.D, truth)

	// The unmasked solver on the zero-filled matrix must be clearly worse:
	// every hole is an extreme negative outlier it has to absorb.
	plain, err := Decompose(holed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plainErr := relErrVs(plain.D, truth)
	if maskedErr > 0.10 {
		t.Errorf("masked recovery error %.4f too large", maskedErr)
	}
	if maskedErr >= plainErr {
		t.Errorf("masked error %.4f should beat zero-filled unmasked %.4f", maskedErr, plainErr)
	}
}

func TestDecomposeMaskedEdgeCases(t *testing.T) {
	a, _ := rank1Spiky(4, 9, 3, 0)
	// Nil mask delegates to Decompose.
	r1, err := DecomposeMasked(a, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.D.ApproxEqual(r2.D, 1e-9) {
		t.Error("nil mask should match Decompose")
	}
	// All-ones mask also delegates.
	ones := mat.NewDense(4, 9)
	ones.Apply(func(int, int, float64) float64 { return 1 })
	r3, err := DecomposeMasked(a, ones, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.D.ApproxEqual(r2.D, 1e-9) {
		t.Error("full mask should match Decompose")
	}
	// Empty mask errors.
	if _, err := DecomposeMasked(a, mat.NewDense(4, 9), Options{}); !errors.Is(err, ErrEmptyMask) {
		t.Errorf("empty mask err = %v", err)
	}
	// Dimension mismatch errors.
	if _, err := DecomposeMasked(a, mat.NewDense(3, 9), Options{}); err == nil {
		t.Error("mask dim mismatch should error")
	}
}

func relErrVs(got, want *mat.Dense) float64 {
	var num, den float64
	r, c := want.Dims()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			num += math.Abs(got.At(i, j) - want.At(i, j))
			den += math.Abs(want.At(i, j))
		}
	}
	return num / den
}
