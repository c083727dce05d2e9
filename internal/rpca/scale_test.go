package rpca_test

import (
	"fmt"
	"math"
	"testing"

	"netconstant/internal/mat"
	"netconstant/internal/rpca"
)

// TestDecomposeScalesExactly is a metamorphic oracle that needs no
// reference solver: RPCA is homogeneous of degree one, so decomposing
// c·A must give c·D and c·E. For a power-of-two c every floating-point
// step of IALM scales exactly (products, quotients and square roots
// shift the exponent and round the same way), so the relation holds bit
// for bit, with the same iteration count, rank and convergence. The one
// term that does not scale is the stop rule's max(1, ‖A‖F), so every
// scaled input keeps ‖c·A‖F > 1. The shapes take both SVT routes: the
// Gram route on the fat 10×1024 and 10×4096 TP-matrices, the Jacobi SVD
// on the square-ish 30×40; each runs plain and masked.
func TestDecomposeScalesExactly(t *testing.T) {
	shapes := []struct{ r, c int }{{10, 1024}, {10, 4096}, {30, 40}}
	scales := []float64{1.0 / 16, 2, 1 << 10}
	for i, sh := range shapes {
		for seed := int64(1); seed <= 2; seed++ {
			a := plantedTP(seed+int64(10*i), sh.r, sh.c, 0.08)
			mask := randomMask(seed+int64(10*i)+100, sh.r, sh.c)
			opts := rpca.Options{Lambda: 1 / math.Sqrt(float64(min(sh.r, sh.c)))}
			for _, route := range []struct {
				name string
				mask *mat.Dense
			}{{"plain", nil}, {"masked", mask}} {
				base, err := rpca.DecomposeMasked(a, route.mask, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !base.Converged {
					t.Fatalf("%dx%d seed %d %s: base solve did not converge", sh.r, sh.c, seed, route.name)
				}
				for _, c := range scales {
					ca := a.Clone()
					ca.ScaleInPlace(c)
					if ca.NormFrobenius() <= 1 {
						t.Fatalf("%dx%d seed %d: ‖%g·A‖F ≤ 1, where the stop rule does not scale", sh.r, sh.c, seed, c)
					}
					got, err := rpca.DecomposeMasked(ca, route.mask, opts)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s %dx%d at seed %d, scale %g", route.name, sh.r, sh.c, seed, c)
					if got.Iterations != base.Iterations || got.RankD != base.RankD || got.Converged != base.Converged {
						t.Fatalf("%s: %d iterations, rank %d, converged %v; unscaled %d, %d, %v",
							what, got.Iterations, got.RankD, got.Converged, base.Iterations, base.RankD, base.Converged)
					}
					requireScaled(t, "D of "+what, got.D, base.D, c)
					requireScaled(t, "E of "+what, got.E, base.E, c)
				}
			}
		}
	}
}

// requireScaled fails unless got is c·want bit for bit.
func requireScaled(t *testing.T, what string, got, want *mat.Dense, c float64) {
	t.Helper()
	g, w := got.Data(), want.Data()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(c*w[i]) {
			t.Fatalf("%s: entry %d is %v, want %v (c·%v)", what, i, g[i], c*w[i], w[i])
		}
	}
}
