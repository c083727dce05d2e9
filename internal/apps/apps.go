// Package apps implements the paper's two real-world applications (§V-A,
// §V-D2): N-body (all-pairs gravity) and conjugate gradient (CG). Both run
// their actual numerics in-process while charging communication time to a
// simulated-time mpi.Network and computation time to a flop-rate model, so
// results are deterministic and the computation/communication/overhead
// breakdown of Fig 9 can be reported exactly.
//
// As in the paper, the all-to-all exchange both applications need is
// implemented as a gather followed by a broadcast (the MPICH2 composition),
// so the communication trees chosen by each strategy directly determine
// the communication time.
package apps

import (
	"errors"
	"fmt"
	"math"

	"netconstant/internal/mpi"
	"netconstant/internal/sparse"
	"netconstant/internal/stats"
)

// Breakdown partitions application elapsed time as in Fig 9: computation,
// communication, and "other overheads" (calibration + RPCA analysis).
type Breakdown struct {
	Computation   float64
	Communication float64
	Overhead      float64
}

// Total returns the end-to-end elapsed time.
func (b Breakdown) Total() float64 { return b.Computation + b.Communication + b.Overhead }

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.3fs comp=%.3fs comm=%.3fs overhead=%.3fs",
		b.Total(), b.Computation, b.Communication, b.Overhead)
}

// NBodyConfig parameterizes the N-body run. The zero value is completed
// with the paper's defaults: 2560 steps would be the full Fig 9b sweep,
// but Steps must be set explicitly; FlopRate defaults to 1 Gflop/s per
// rank.
type NBodyConfig struct {
	Bodies   int     // total bodies across all ranks
	Steps    int     // simulation steps (#Step in Fig 9b)
	Ranks    int     // number of processes; must divide into Bodies sensibly
	MsgBytes float64 // per-rank all-to-all chunk; 0 derives it from Bodies
	FlopRate float64 // simulated compute throughput per rank, flops/s
	DT       float64 // integration step
	Seed     int64
}

// NBodyResult reports the run.
type NBodyResult struct {
	Breakdown Breakdown
	// Energy is the final total kinetic energy — a physics checksum that
	// tests use to verify the numerics are real and deterministic.
	Energy float64
}

type body struct {
	pos, vel [3]float64
	mass     float64
}

// RunNBody executes the gravitational N-body loop: each step exchanges all
// positions via gather+broadcast on the supplied network and then
// integrates the owned chunk. Communication elapsed time comes from the
// network; computation time is flops/FlopRate.
func RunNBody(net mpi.Network, gather, bcast *mpi.Tree, cfg NBodyConfig) (*NBodyResult, error) {
	if cfg.Bodies <= 0 || cfg.Steps <= 0 || cfg.Ranks <= 0 {
		return nil, errors.New("apps: NBody needs positive Bodies, Steps and Ranks")
	}
	if gather.NumRanks() != cfg.Ranks || bcast.NumRanks() != cfg.Ranks {
		return nil, errors.New("apps: tree rank count mismatch")
	}
	if cfg.FlopRate <= 0 {
		cfg.FlopRate = 1e9
	}
	if cfg.DT <= 0 {
		cfg.DT = 1e-3
	}
	msg := cfg.MsgBytes
	if msg <= 0 {
		// Each rank ships its chunk of positions+masses: 4 float64s/body.
		msg = float64(cfg.Bodies) / float64(cfg.Ranks) * 32
	}

	// Initialize bodies deterministically on a disc with small random
	// velocities.
	rng := stats.NewRNG(cfg.Seed ^ 0xb0d1e5)
	bodies := make([]body, cfg.Bodies)
	for i := range bodies {
		r := 1 + rng.Float64()
		theta := 2 * math.Pi * rng.Float64()
		bodies[i].pos = [3]float64{r * math.Cos(theta), r * math.Sin(theta), 0.1 * rng.NormFloat64()}
		bodies[i].vel = [3]float64{0.05 * rng.NormFloat64(), 0.05 * rng.NormFloat64(), 0}
		bodies[i].mass = 1 / float64(cfg.Bodies)
	}

	res := &NBodyResult{}
	const g = 1.0
	const soft2 = 1e-4
	perRank := (cfg.Bodies + cfg.Ranks - 1) / cfg.Ranks

	for step := 0; step < cfg.Steps; step++ {
		// All-to-all position exchange (gather to root, broadcast back).
		res.Breakdown.Communication += mpi.RunAllToAll(net, gather, bcast, msg)

		// Each rank computes forces for its chunk against all bodies. The
		// numerics run here sequentially; the simulated cost is the
		// per-rank share (ranks compute in parallel).
		acc := make([][3]float64, cfg.Bodies)
		for i := range bodies {
			for j := range bodies {
				if i == j {
					continue
				}
				dx := bodies[j].pos[0] - bodies[i].pos[0]
				dy := bodies[j].pos[1] - bodies[i].pos[1]
				dz := bodies[j].pos[2] - bodies[i].pos[2]
				d2 := dx*dx + dy*dy + dz*dz + soft2
				inv := 1 / (d2 * math.Sqrt(d2))
				f := g * bodies[j].mass * inv
				acc[i][0] += f * dx
				acc[i][1] += f * dy
				acc[i][2] += f * dz
			}
		}
		for i := range bodies {
			for k := 0; k < 3; k++ {
				bodies[i].vel[k] += cfg.DT * acc[i][k]
				bodies[i].pos[k] += cfg.DT * bodies[i].vel[k]
			}
		}
		// ~20 flops per interaction; each rank owns perRank bodies.
		flops := float64(perRank) * float64(cfg.Bodies) * 20
		res.Breakdown.Computation += flops / cfg.FlopRate
	}

	for i := range bodies {
		v2 := bodies[i].vel[0]*bodies[i].vel[0] + bodies[i].vel[1]*bodies[i].vel[1] + bodies[i].vel[2]*bodies[i].vel[2]
		res.Energy += 0.5 * bodies[i].mass * v2
	}
	return res, nil
}

// CGConfig parameterizes the distributed conjugate gradient run of Fig 9a.
type CGConfig struct {
	VectorSize int     // unknowns in the linear system (the Fig 9a x-axis)
	Ranks      int     // number of processes
	FlopRate   float64 // simulated compute throughput per rank, flops/s
	Tol        float64 // convergence: ‖r‖ ≤ Tol·‖g0‖ (paper: 1e-5)
	MaxIter    int
}

// CGResult reports the run.
type CGResult struct {
	Breakdown  Breakdown
	Iterations int
	Converged  bool
	Residual   float64
}

// RunCG solves a 2-D Poisson system of about VectorSize unknowns with the
// real CG iteration, charging per-iteration communication (the vector
// all-to-all as gather+broadcast) to the network and SpMV flops to the
// compute model.
func RunCG(net mpi.Network, gather, bcast *mpi.Tree, cfg CGConfig) (*CGResult, error) {
	if cfg.VectorSize <= 0 || cfg.Ranks <= 0 {
		return nil, errors.New("apps: CG needs positive VectorSize and Ranks")
	}
	if gather.NumRanks() != cfg.Ranks || bcast.NumRanks() != cfg.Ranks {
		return nil, errors.New("apps: tree rank count mismatch")
	}
	if cfg.FlopRate <= 0 {
		cfg.FlopRate = 1e9
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-5
	}

	// Build a near-square 2-D Laplacian with ~VectorSize unknowns.
	nx := int(math.Sqrt(float64(cfg.VectorSize)))
	if nx < 1 {
		nx = 1
	}
	ny := (cfg.VectorSize + nx - 1) / nx
	a := sparse.Laplacian2D(nx, ny)
	n, _ := a.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.1)
	}

	res := &CGResult{}
	// Per-iteration costs: SpMV (2 flops per nonzero) plus vector ops
	// (~10n flops), split across ranks; the per-rank vector chunk travels
	// through gather+broadcast.
	perIterFlops := (2*float64(a.NNZ()) + 10*float64(n)) / float64(cfg.Ranks)
	chunkBytes := float64(n) / float64(cfg.Ranks) * 8

	out, err := sparse.CG(a, b, nil, sparse.CGOptions{
		Tol:     cfg.Tol,
		MaxIter: cfg.MaxIter,
		OnIteration: func(iter int, resid float64) {
			res.Breakdown.Computation += perIterFlops / cfg.FlopRate
			res.Breakdown.Communication += mpi.RunAllToAll(net, gather, bcast, chunkBytes)
		},
	})
	if err != nil {
		return nil, err
	}
	res.Iterations = out.Iterations
	res.Converged = out.Converged
	res.Residual = out.Residual
	return res, nil
}
