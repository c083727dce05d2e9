package netmodel

import (
	"bytes"
	"encoding/csv"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"netconstant/internal/mat"
)

func TestLinkTransferTime(t *testing.T) {
	l := Link{Alpha: 0.001, Beta: 1e6}
	if got := l.TransferTime(1e6); math.Abs(got-1.001) > 1e-12 {
		t.Errorf("transfer time %v", got)
	}
	if !math.IsInf(Link{Alpha: 1, Beta: 0}.TransferTime(10), 1) {
		t.Error("zero bandwidth should be infinite time")
	}
}

func TestPerfMatrixLinks(t *testing.T) {
	p := NewPerfMatrix(3)
	p.SetLink(0, 1, Link{Alpha: 0.5, Beta: 100})
	l := p.Link(0, 1)
	if l.Alpha != 0.5 || l.Beta != 100 {
		t.Error("set/get link")
	}
	if p.Link(1, 0).Alpha != 0 {
		t.Error("asymmetric by default")
	}
}

func TestWeights(t *testing.T) {
	p := NewPerfMatrix(2)
	p.SetLink(0, 1, Link{Alpha: 1, Beta: 10})
	p.SetLink(1, 0, Link{Alpha: 2, Beta: 20})
	w := p.Weights(100)
	if w.At(0, 0) != 0 || w.At(1, 1) != 0 {
		t.Error("diagonal should be zero")
	}
	if math.Abs(w.At(0, 1)-11) > 1e-12 {
		t.Errorf("w(0,1)=%v", w.At(0, 1))
	}
	if math.Abs(w.At(1, 0)-7) > 1e-12 {
		t.Errorf("w(1,0)=%v", w.At(1, 0))
	}
}

func TestPerfMatrixClone(t *testing.T) {
	p := NewPerfMatrix(2)
	p.SetLink(0, 1, Link{Alpha: 1, Beta: 2})
	c := p.Clone()
	c.SetLink(0, 1, Link{Alpha: 9, Beta: 9})
	if p.Link(0, 1).Alpha != 1 {
		t.Error("clone aliases")
	}
}

func TestVectorizeRoundTrip(t *testing.T) {
	m := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	v := Vectorize(m)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("vectorize %v", v)
		}
	}
	back := Devectorize(v, 2)
	if !back.ApproxEqual(m, 0) {
		t.Error("devectorize")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Devectorize([]float64{1, 2, 3}, 2)
}

func TestTPMatrixAppendAndViews(t *testing.T) {
	tp := NewTPMatrix(2)
	s1 := mat.FromRows([][]float64{{0, 1}, {2, 0}})
	s2 := mat.FromRows([][]float64{{0, 3}, {4, 0}})
	tp.Append(0, s1)
	tp.Append(10, s2)
	if tp.Steps() != 2 {
		t.Fatal("steps")
	}
	if !tp.Snapshot(1).ApproxEqual(s2, 0) {
		t.Error("snapshot")
	}
	m := tp.Matrix()
	if m.Rows() != 2 || m.Cols() != 4 {
		t.Error("matrix dims")
	}
	if m.At(0, 1) != 1 || m.At(1, 2) != 4 {
		t.Error("matrix content")
	}
	h := tp.Head(1)
	if h.Steps() != 1 || h.Times[0] != 0 {
		t.Error("head")
	}
	if tp.Head(99).Steps() != 2 {
		t.Error("head clamp")
	}
	w := tp.Window(5, 15)
	if w.Steps() != 1 || w.Times[0] != 10 {
		t.Error("window")
	}
	c := tp.Clone()
	c.Append(20, s1)
	if tp.Steps() != 2 {
		t.Error("clone aliases")
	}
}

func TestTPMatrixAppendPanics(t *testing.T) {
	tp := NewTPMatrix(2)
	mustPanic(t, func() { tp.Append(0, mat.NewDense(3, 3)) })
	tp.Append(5, mat.NewDense(2, 2))
	mustPanic(t, func() { tp.Append(1, mat.NewDense(2, 2)) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestTPMatrixGobRoundTrip(t *testing.T) {
	tp := NewTPMatrix(2)
	tp.Append(1, mat.FromRows([][]float64{{0, 5}, {6, 0}}))
	tp.Append(2, mat.FromRows([][]float64{{0, 7}, {8, 0}}))
	back, err := RoundTripBytes(tp)
	if err != nil {
		t.Fatal(err)
	}
	if back.Steps() != 2 || back.N != 2 {
		t.Fatal("round trip shape")
	}
	if !back.Snapshot(1).ApproxEqual(tp.Snapshot(1), 0) {
		t.Error("round trip content")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := mat.FromRows([][]float64{{1.5, -2}, {3.25, 1e-9}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ApproxEqual(m, 0) {
		t.Error("csv round trip")
	}
}

func TestReadCSVBad(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("1,notanumber\n")); err == nil {
		t.Error("bad csv should error")
	}
	m, err := ReadCSV(new(bytes.Buffer))
	if err != nil || m.Rows() != 0 {
		t.Error("empty csv")
	}
}

func TestInjectNoiseStep(t *testing.T) {
	tp := NewTPMatrix(2)
	snap := mat.FromRows([][]float64{{0, 100}, {100, 0}})
	tp.Append(0, snap)
	orig := tp.Matrix()
	rng := rand.New(rand.NewSource(1))
	tp.InjectNoiseStep(rng, 50)
	after := tp.Matrix()
	if orig.ApproxEqual(after, 0) {
		t.Error("noise should change matrix")
	}
	// Changes should be small multiplicative steps: within 1.01^50.
	for i := 0; i < after.Rows(); i++ {
		for j := 0; j < after.Cols(); j++ {
			o, a := orig.At(i, j), after.At(i, j)
			if o == 0 {
				if a != 0 {
					t.Error("zero cells should remain zero under multiplicative noise")
				}
				continue
			}
			ratio := a / o
			if ratio < math.Pow(0.99, 60) || ratio > math.Pow(1.01, 60) {
				t.Errorf("cell moved too far: ratio %v", ratio)
			}
		}
	}
	// No-op on empty.
	NewTPMatrix(2).InjectNoiseStep(rng, 10)
}

func TestInjectSpikes(t *testing.T) {
	tp := NewTPMatrix(2)
	tp.Append(0, mat.FromRows([][]float64{{0, 10}, {10, 0}}))
	rng := rand.New(rand.NewSource(2))
	tp.InjectSpikes(rng, 1.0, 2.0) // every cell spiked
	m := tp.Matrix()
	if m.At(0, 1) <= 10 || m.At(0, 2) <= 10 {
		t.Error("spikes should increase values")
	}
}

// Property: vectorize/devectorize is lossless for arbitrary square sizes.
func TestPropertyVectorizeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := mat.RandomNormal(rng, n, n, 0, 5)
		return Devectorize(Vectorize(m), n).ApproxEqual(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: gob round trip preserves every snapshot exactly.
func TestPropertyGobRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		tp := NewTPMatrix(n)
		steps := 1 + rng.Intn(6)
		for s := 0; s < steps; s++ {
			tp.Append(float64(s), mat.RandomNormal(rng, n, n, 10, 3))
		}
		back, err := RoundTripBytes(tp)
		if err != nil || back.Steps() != steps {
			return false
		}
		for s := 0; s < steps; s++ {
			if !back.Snapshot(s).ApproxEqual(tp.Snapshot(s), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRepairInNetmodel(t *testing.T) {
	pm := NewPerfMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				pm.SetLink(i, j, Link{Alpha: 1e-3, Beta: 2e6})
			}
		}
	}
	pm.SetLink(1, 2, Link{Alpha: math.NaN(), Beta: math.NaN()})
	n := pm.Repair()
	if n != 2 { // one latency cell + one bandwidth cell
		t.Errorf("repaired %d cells", n)
	}
	if pm.Link(1, 2).Beta != 2e6 {
		t.Error("NaN cell should borrow the reverse direction")
	}
	// Fully-broken matrix: nothing to borrow, cells stay broken.
	empty := NewPerfMatrix(2)
	if empty.Repair() != 0 {
		t.Error("all-zero matrix has nothing to repair from")
	}
}

func TestDecodeTPMatrixCorrupt(t *testing.T) {
	if _, err := DecodeTPMatrix(bytes.NewBufferString("garbage")); err == nil {
		t.Error("garbage should fail to decode")
	}
}

// The windowing, codecs and noise injectors below run only under these
// tests: no figure, command or daemon op calls them.

// Window returns the rows with Times in [t0, t1] as a new TP-matrix.
func (tp *TPMatrix) Window(t0, t1 float64) *TPMatrix {
	out := NewTPMatrix(tp.N)
	for i, tm := range tp.Times {
		if tm >= t0 && tm <= t1 {
			out.Times = append(out.Times, tm)
			out.rows = append(out.rows, append([]float64(nil), tp.rows[i]...))
		}
	}
	return out
}

// DecodeTPMatrix reads a TP-matrix previously written by Encode.
func DecodeTPMatrix(r io.Reader) (*TPMatrix, error) {
	var g gobTP
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	if len(g.Times) != len(g.Rows) {
		return nil, errors.New("netmodel: corrupt TP-matrix: times/rows mismatch")
	}
	for _, row := range g.Rows {
		if len(row) != g.N*g.N {
			return nil, errors.New("netmodel: corrupt TP-matrix: row length mismatch")
		}
	}
	return &TPMatrix{N: g.N, Times: g.Times, rows: g.Rows}, nil
}

// WriteCSV writes a snapshot matrix as CSV (one row per line).
func WriteCSV(w io.Writer, m *mat.Dense) error {
	cw := csv.NewWriter(w)
	rec := make([]string, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			rec[j] = strconv.FormatFloat(m.At(i, j), 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dense matrix from CSV.
func ReadCSV(r io.Reader) (*mat.Dense, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return mat.NewDense(0, 0), nil
	}
	rows := make([][]float64, len(recs))
	for i, rec := range recs {
		rows[i] = make([]float64, len(rec))
		for j, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("netmodel: bad CSV cell (%d,%d): %w", i, j, err)
			}
			rows[i][j] = v
		}
	}
	return mat.FromRows(rows), nil
}

// RoundTripBytes is a convenience helper that encodes and re-decodes a
// TP-matrix through memory, used in tests and the trace tooling.
func RoundTripBytes(tp *TPMatrix) (*TPMatrix, error) {
	var buf bytes.Buffer
	if err := tp.Encode(&buf); err != nil {
		return nil, err
	}
	return DecodeTPMatrix(&buf)
}

// InjectNoiseStep applies one batch of the paper's noise procedure to the
// TP-matrix in place: each selected cell is increased or decreased by 1%
// (§V-D3, "for each time of adding noise, we change the network
// performance by 1%"). cells gives how many random cells to perturb.
func (tp *TPMatrix) InjectNoiseStep(rng *rand.Rand, cells int) {
	if len(tp.rows) == 0 {
		return
	}
	width := tp.N * tp.N
	for k := 0; k < cells; k++ {
		i := rng.Intn(len(tp.rows))
		j := rng.Intn(width)
		if rng.Float64() < 0.5 {
			tp.rows[i][j] *= 1.01
		} else {
			tp.rows[i][j] *= 0.99
		}
	}
}

// InjectSpikes adds sparse multiplicative spikes (factor amp, probability
// density per cell) — a faster way to reach high Norm(N_E) targets than
// repeated 1% steps, used by the Fig 10 sweep's upper range.
func (tp *TPMatrix) InjectSpikes(rng *rand.Rand, density, amp float64) {
	for _, row := range tp.rows {
		for j := range row {
			if rng.Float64() < density {
				row[j] *= 1 + amp*rng.Float64()
			}
		}
	}
}
