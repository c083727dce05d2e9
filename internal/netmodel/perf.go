// Package netmodel defines the network performance abstractions of the
// paper (§III): the α-β link model, N×N performance matrices over a
// virtual cluster, and temporal performance matrices (TP-matrix) that
// stack calibration snapshots as rows.
package netmodel

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"

	"netconstant/internal/mat"
)

// Link is the α-β model of a directed machine pair: transfer time for n
// bytes is Alpha + n/Beta.
type Link struct {
	Alpha float64 // latency in seconds
	Beta  float64 // bandwidth in bytes per second
}

// TransferTime estimates the α-β transfer time for a message of n bytes.
func (l Link) TransferTime(n float64) float64 {
	if l.Beta <= 0 {
		return math.Inf(1)
	}
	return l.Alpha + n/l.Beta
}

// PerfMatrix is a snapshot of all-link network performance of an N-VM
// virtual cluster: two N×N matrices holding per-pair latency (seconds) and
// bandwidth (bytes/second). The diagonal is zero-latency, infinite-speed
// loopback by convention and is ignored by the optimizers.
//
// Quality, when non-nil, carries a per-cell measurement quality score in
// [0, 1] shared by both matrices (a probe measures latency and bandwidth
// together): 1 is a clean first-attempt measurement, lower values mean the
// probe needed retries or had repeats rejected as outliers, and 0 marks a
// cell as *missing* — the probe exhausted its retry budget and the cell
// holds no measurement. A nil Quality is the legacy convention: every
// off-diagonal cell is assumed measured at full quality.
type PerfMatrix struct {
	N       int
	Latency *mat.Dense
	Bandwth *mat.Dense
	Quality *mat.Dense
}

// NewPerfMatrix allocates a zeroed N×N performance snapshot.
func NewPerfMatrix(n int) *PerfMatrix {
	return &PerfMatrix{N: n, Latency: mat.NewDense(n, n), Bandwth: mat.NewDense(n, n)}
}

// Link returns the α-β parameters of the directed pair (i, j).
func (p *PerfMatrix) Link(i, j int) Link {
	return Link{Alpha: p.Latency.At(i, j), Beta: p.Bandwth.At(i, j)}
}

// SetLink assigns the α-β parameters of the directed pair (i, j).
func (p *PerfMatrix) SetLink(i, j int, l Link) {
	p.Latency.Set(i, j, l.Alpha)
	p.Bandwth.Set(i, j, l.Beta)
}

// Weights converts the snapshot into a single N×N weight matrix of
// estimated transfer times for a message of msgBytes — the input format of
// the FNF and topology-mapping algorithms (a smaller weight means a better
// link, paper Fig 1). Diagonal entries are zero.
func (p *PerfMatrix) Weights(msgBytes float64) *mat.Dense {
	w := mat.NewDense(p.N, p.N)
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			if i == j {
				continue
			}
			w.Set(i, j, p.Link(i, j).TransferTime(msgBytes))
		}
	}
	return w
}

// EnsureQuality allocates the quality matrix if absent. Cells start at 0
// (unmeasured); calibration marks each cell as it is probed.
func (p *PerfMatrix) EnsureQuality() {
	if p.Quality == nil {
		p.Quality = mat.NewDense(p.N, p.N)
	}
}

// SetLinkQ assigns the pair's α-β parameters together with a measurement
// quality score in [0, 1], allocating the quality matrix on first use.
func (p *PerfMatrix) SetLinkQ(i, j int, l Link, quality float64) {
	p.EnsureQuality()
	p.SetLink(i, j, l)
	if quality < 0 {
		quality = 0
	}
	if quality > 1 {
		quality = 1
	}
	p.Quality.Set(i, j, quality)
}

// MarkMissing records that the pair could not be measured: the cell keeps a
// zero link and quality 0 so downstream layers can mask it instead of
// consuming a silent zero.
func (p *PerfMatrix) MarkMissing(i, j int) {
	p.EnsureQuality()
	p.SetLink(i, j, Link{})
	p.Quality.Set(i, j, 0)
}

// IsMissing reports whether the directed off-diagonal cell holds no
// measurement. With quality tracking a cell is missing iff its quality is
// zero; legacy matrices fall back to the non-positive-value convention
// used by Repair.
func (p *PerfMatrix) IsMissing(i, j int) bool {
	if i == j {
		return false
	}
	if p.Quality != nil {
		return !(p.Quality.At(i, j) > 0)
	}
	return !(p.Bandwth.At(i, j) > 0)
}

// MeanQuality averages the quality score over all off-diagonal cells
// (missing cells count as 0). Without quality tracking it returns 1.
func (p *PerfMatrix) MeanQuality() float64 {
	if p.Quality == nil || p.N < 2 {
		return 1
	}
	var s float64
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			if i != j {
				s += p.Quality.At(i, j)
			}
		}
	}
	return s / float64(p.N*(p.N-1))
}

// Clone returns a deep copy.
func (p *PerfMatrix) Clone() *PerfMatrix {
	out := &PerfMatrix{N: p.N, Latency: p.Latency.Clone(), Bandwth: p.Bandwth.Clone()}
	if p.Quality != nil {
		out.Quality = p.Quality.Clone()
	}
	return out
}

// Repair fills in missing measurements (non-positive or NaN cells) of a
// performance snapshot in place: a broken directed cell first borrows the
// reverse direction's value, and if both directions failed it falls back
// to the median of the valid entries in its column (the "other senders to
// this receiver" population). It returns how many cells were repaired.
// Diagonal cells are ignored. Snapshots where an entire column failed keep
// zero cells — callers should re-measure in that case.
//
// With quality tracking enabled, missingness is driven by the quality mask
// (a shared probe failure breaks latency and bandwidth together), repaired
// cells are down-scored instead of passing as real measurements
// (reverse-direction borrow: half the donor's quality; column median: 0.2),
// and cells that cannot be repaired stay marked missing so masked
// decomposition can exclude them.
func (p *PerfMatrix) Repair() int {
	repaired := 0
	bad := func(m *mat.Dense, i, j int) bool {
		if p.Quality != nil {
			return !(p.Quality.At(i, j) > 0)
		}
		return !(m.At(i, j) > 0) // catches NaN too
	}
	fix := func(m *mat.Dense, score bool) {
		colMedian := func(j int) float64 {
			var vals []float64
			for i := 0; i < p.N; i++ {
				if i == j {
					continue
				}
				if v := m.At(i, j); !bad(m, i, j) && v > 0 {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				return 0
			}
			sort.Float64s(vals)
			if len(vals)%2 == 1 {
				return vals[len(vals)/2]
			}
			return 0.5 * (vals[len(vals)/2-1] + vals[len(vals)/2])
		}
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.N; j++ {
				if i == j || !bad(m, i, j) {
					continue
				}
				if rev := m.At(j, i); !bad(m, j, i) && rev > 0 {
					m.Set(i, j, rev)
					if score && p.Quality != nil {
						p.Quality.Set(i, j, 0.5*p.Quality.At(j, i))
					}
					repaired++
					continue
				}
				if med := colMedian(j); med > 0 {
					m.Set(i, j, med)
					if score && p.Quality != nil {
						p.Quality.Set(i, j, 0.2)
					}
					repaired++
				}
			}
		}
	}
	fix(p.Latency, false)
	fix(p.Bandwth, true) // score once: the quality mask is shared
	return repaired
}

// Vectorize lays out an N×N matrix into an N²-vector by row order, the
// TP-matrix row format of paper §III.
func Vectorize(m *mat.Dense) []float64 {
	out := make([]float64, 0, m.Rows()*m.Cols())
	for i := 0; i < m.Rows(); i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// Devectorize rebuilds an n×n matrix from its row-order vectorization.
func Devectorize(v []float64, n int) *mat.Dense {
	if len(v) != n*n {
		panic(fmt.Sprintf("netmodel: devectorize length %d != %d²", len(v), n))
	}
	m := mat.NewDense(n, n)
	copy(m.Data(), v)
	return m
}

// TPMatrix is a temporal performance matrix: each row is one vectorized
// all-link snapshot, rows ordered by measurement time. The number of rows
// is the paper's "time step" tuning parameter.
type TPMatrix struct {
	N     int       // cluster size; each row has N² entries
	Times []float64 // measurement times (simulated seconds)
	rows  [][]float64
}

// NewTPMatrix creates an empty TP-matrix for an N-VM cluster.
func NewTPMatrix(n int) *TPMatrix {
	return &TPMatrix{N: n}
}

// Append adds a snapshot taken at the given time. Rows must be appended in
// non-decreasing time order.
func (tp *TPMatrix) Append(t float64, snapshot *mat.Dense) {
	if snapshot.Rows() != tp.N || snapshot.Cols() != tp.N {
		panic("netmodel: snapshot dimension mismatch")
	}
	if len(tp.Times) > 0 && t < tp.Times[len(tp.Times)-1] {
		panic("netmodel: snapshots must be appended in time order")
	}
	tp.Times = append(tp.Times, t)
	tp.rows = append(tp.rows, Vectorize(snapshot))
}

// Steps returns the number of snapshots (rows).
func (tp *TPMatrix) Steps() int { return len(tp.rows) }

// Snapshot reconstructs the i-th snapshot as an N×N matrix.
//
//netlint:allow testonly core's and cloud's tests read calibration snapshots with it
func (tp *TPMatrix) Snapshot(i int) *mat.Dense {
	return Devectorize(tp.rows[i], tp.N)
}

// Matrix returns the steps×N² dense matrix view (copied) — the data matrix
// A handed to RPCA.
func (tp *TPMatrix) Matrix() *mat.Dense {
	m := mat.NewDense(len(tp.rows), tp.N*tp.N)
	for i, row := range tp.rows {
		copy(m.Row(i), row)
	}
	return m
}

// Head returns a new TP-matrix containing only the first k rows (a "time
// step" prefix used by the Fig 5 sweep). k larger than Steps() is clamped.
func (tp *TPMatrix) Head(k int) *TPMatrix {
	if k > len(tp.rows) {
		k = len(tp.rows)
	}
	out := NewTPMatrix(tp.N)
	for i := 0; i < k; i++ {
		out.Times = append(out.Times, tp.Times[i])
		out.rows = append(out.rows, append([]float64(nil), tp.rows[i]...))
	}
	return out
}

// Clone deep-copies the TP-matrix.
func (tp *TPMatrix) Clone() *TPMatrix {
	out := NewTPMatrix(tp.N)
	out.Times = append(out.Times, tp.Times...)
	for _, r := range tp.rows {
		out.rows = append(out.rows, append([]float64(nil), r...))
	}
	return out
}

// gobTP mirrors TPMatrix for encoding (unexported fields are not encoded
// by gob directly).
type gobTP struct {
	N     int
	Times []float64
	Rows  [][]float64
}

// Encode serializes the TP-matrix with encoding/gob.
//
//netlint:allow testonly faults' and cloud's determinism tests compare the bytes it writes
func (tp *TPMatrix) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(gobTP{N: tp.N, Times: tp.Times, Rows: tp.rows})
}
