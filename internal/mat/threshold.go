package mat

// Shrink returns the soft threshold sign(x)·max(|x|−tau, 0) of one value:
// x−tau above tau, x+tau below −tau, 0 in between.
//
//netlint:hotpath
func Shrink(x, tau float64) float64 {
	switch {
	case x > tau:
		return x - tau
	case x < -tau:
		return x + tau
	default:
		return 0
	}
}

// SVT applies singular value thresholding — the proximal operator of the
// nuclear norm: shrink every singular value by tau and reconstruct. It
// returns the thresholded matrix together with the number of singular
// values that survived (the rank of the result).
func (m *Dense) SVT(tau float64) (*Dense, int) {
	svd := m.SVD()
	rank := 0
	for i, s := range svd.S {
		s = s - tau
		if s < 0 {
			s = 0
		} else {
			rank++
		}
		svd.S[i] = s
	}
	return svd.Reconstruct(rank), rank
}
