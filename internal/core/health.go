package core

import (
	"fmt"

	"netconstant/internal/cloud"
)

// Confidence grades how much trust the advisor places in its current
// guidance, given the health of the calibration that produced it. It is
// orthogonal to Effectiveness: Effectiveness says whether the *network* is
// stable enough for optimizations to pay off; Confidence says whether the
// *measurements* were complete and clean enough to believe the analysis at
// all.
type Confidence int

const (
	// ConfidenceNone: the calibration is too damaged to trust any
	// measurement-guided strategy; fall back to the baseline.
	ConfidenceNone Confidence = iota
	// ConfidenceLow: enough signal survives for coarse heuristics, but the
	// RPCA constant component is not reliable.
	ConfidenceLow
	// ConfidenceReduced: the masked decomposition is usable but was
	// reconstructed through gaps; expect wider error bars.
	ConfidenceReduced
	// ConfidenceHigh: a clean, (nearly) fully observed calibration.
	ConfidenceHigh
)

// String names the confidence grade.
func (c Confidence) String() string {
	switch c {
	case ConfidenceHigh:
		return "high"
	case ConfidenceReduced:
		return "reduced"
	case ConfidenceLow:
		return "low"
	case ConfidenceNone:
		return "none"
	default:
		return fmt.Sprintf("Confidence(%d)", int(c))
	}
}

// CalibrationHealth summarizes the measurement quality of a temporal
// calibration — the inputs to the confidence grading ladder.
type CalibrationHealth struct {
	// Coverage is the fraction of off-diagonal TP-matrix cells that hold a
	// real measurement (1 for legacy fully-observed calibrations).
	Coverage float64
	// MeanQuality is the average per-cell quality score of the surviving
	// measurements.
	MeanQuality float64
	// OutlierRate is the fraction of cells whose probe repeats required MAD
	// rejection (outliers / total off-diagonal cells).
	OutlierRate float64
	// RetryExhaustion is the fraction of cells whose whole retry budget
	// failed, leaving the cell missing.
	RetryExhaustion float64
	// Converged reports whether both RPCA solves of the analysis (latency
	// and bandwidth) reached the solver's residual tolerance before its
	// iteration cap. It stays out of the confidence grade, which grades
	// measurement health only (DESIGN.md §5).
	Converged bool
	// Confidence is the grade derived from the fields above.
	Confidence Confidence
}

// AssessCalibration computes health metrics for a temporal calibration and
// grades them. converged is the RPCA convergence status of the analysis
// that consumed the calibration. A calibration without per-step accounting
// (legacy mode, replayed snapshots) is treated as fully observed.
func AssessCalibration(tc *cloud.TemporalCalibration, converged bool) CalibrationHealth {
	h := CalibrationHealth{Coverage: 1, MeanQuality: 1, Converged: converged}
	if tc != nil {
		h.Coverage = tc.Coverage()
		if len(tc.Steps) > 0 {
			n := tc.Latency.N
			cells := len(tc.Steps) * n * (n - 1)
			var q float64
			outliers, missing := 0, 0
			for _, cal := range tc.Steps {
				q += cal.MeanQuality()
				outliers += cal.Outliers
				missing += cal.Missing
			}
			h.MeanQuality = q / float64(len(tc.Steps))
			if cells > 0 {
				h.OutlierRate = float64(outliers) / float64(cells)
				h.RetryExhaustion = float64(missing) / float64(cells)
			}
		}
	}
	h.Confidence = gradeConfidence(h)
	return h
}

// gradeConfidence is the ladder: near-complete clean coverage earns High;
// moderate gaps (the masked solver's comfort zone) earn Reduced; heavy
// gaps leave only Low; beyond that the measurements are mostly noise.
func gradeConfidence(h CalibrationHealth) Confidence {
	switch {
	case h.Coverage >= 0.95 && h.RetryExhaustion <= 0.05:
		return ConfidenceHigh
	case h.Coverage >= 0.75:
		return ConfidenceReduced
	case h.Coverage >= 0.40:
		return ConfidenceLow
	default:
		return ConfidenceNone
	}
}

// FallbackStrategy maps a requested strategy through the confidence
// ladder: RPCA needs at least Reduced confidence, Heuristics at least Low,
// and anything below that degrades to the baseline. Strategies that do not
// consume measurements (Baseline, TopologyAware) pass through unchanged.
func FallbackStrategy(s Strategy, c Confidence) Strategy {
	switch s {
	case RPCA:
		switch {
		case c >= ConfidenceReduced:
			return RPCA
		case c >= ConfidenceLow:
			return Heuristics
		default:
			return Baseline
		}
	case Heuristics:
		if c >= ConfidenceLow {
			return Heuristics
		}
		return Baseline
	default:
		return s
	}
}
