package chaos

import (
	"fmt"
	"strings"

	"netconstant/internal/stats"
)

// RoundResult is one campaign round: the plan that ran and whatever
// invariants it broke.
type RoundResult struct {
	Round    int       `json:"round"`
	Plan     Plan      `json:"plan"`
	Failures []Failure `json:"failures,omitempty"`
}

// Report is a full campaign transcript. Identical (Seed, Rounds,
// MaxOps) inputs produce identical reports, byte for byte — that is the
// harness's own reproducibility contract, and what lets CI hand a
// failing seed to a laptop.
type Report struct {
	Seed   int64         `json:"seed"`
	Rounds int           `json:"rounds"`
	MaxOps int           `json:"max_ops"`
	Result []RoundResult `json:"result"`
}

// Failed returns the rounds that broke at least one invariant.
func (r Report) Failed() []RoundResult {
	var out []RoundResult
	for _, rr := range r.Result {
		if len(rr.Failures) > 0 {
			out = append(out, rr)
		}
	}
	return out
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign seed=%d rounds=%d maxops=%d\n", r.Seed, r.Rounds, r.MaxOps)
	for _, rr := range r.Result {
		status := "ok"
		if len(rr.Failures) > 0 {
			status = fmt.Sprintf("%d FAILURES", len(rr.Failures))
		}
		fmt.Fprintf(&b, "  round %d: %s — %s\n", rr.Round, rr.Plan, status)
		for _, f := range rr.Failures {
			fmt.Fprintf(&b, "    %s\n", f)
		}
	}
	return b.String()
}

// CampaignWith runs rounds seeded fault campaigns: each round draws a
// fresh plan from the campaign seed and checks every oracle against it,
// the externally-equipped ones included when opts carries them (the fleet
// oracle, when opts carries a driver binary). All derivation is
// splitmix-style from (seed, round), so reports replay exactly. Plan
// generation ignores opts — opts changes what is checked, not what is
// drawn — so a failing round's seed replays under any options.
func CampaignWith(seed int64, rounds, maxOps int, opts Options) Report {
	rep := Report{Seed: seed, Rounds: rounds, MaxOps: maxOps}
	for r := 0; r < rounds; r++ {
		roundSeed := seed + int64(r)*0x9e3779b97f4a7c // golden-ratio stride keeps round seeds well separated
		plan := GeneratePlan(stats.NewRNG(roundSeed), roundSeed, maxOps)
		rep.Result = append(rep.Result, RoundResult{
			Round:    r,
			Plan:     plan,
			Failures: RunOraclesWith(plan, opts),
		})
	}
	return rep
}

// Shrink reduces a failing plan to a minimal one that still fails,
// using greedy delta debugging: repeatedly drop whole ops, then halve
// numeric parameters, keeping any change under which `failing` still
// reports at least one violation, until a fixpoint. The returned plan
// is the small replayable reproducer to file with the bug.
//
// failing is the oracle under which p fails — RunOracles for a real
// campaign, or any predicate in tests. If p does not fail at all,
// Shrink returns it unchanged.
func Shrink(p Plan, failing func(Plan) []Failure) Plan {
	if len(failing(p)) == 0 {
		return p
	}
	cur := p
	for changed := true; changed; {
		changed = false

		// Pass 1: drop one op entirely.
		for i := 0; i < len(cur.Ops); i++ {
			if len(cur.Ops) == 1 {
				break
			}
			ops := make([]Op, 0, len(cur.Ops)-1)
			ops = append(ops, cur.Ops[:i]...)
			ops = append(ops, cur.Ops[i+1:]...)
			cand := Plan{Seed: cur.Seed, Ops: ops}
			if len(failing(cand)) > 0 {
				cur = cand
				changed = true
				break
			}
		}
		if changed {
			continue
		}

		// Pass 2: shrink one numeric field of one op.
	shrinkFields:
		for i := range cur.Ops {
			for _, cand := range shrinkOps(cur, i) {
				if len(failing(cand)) > 0 {
					cur = cand
					changed = true
					break shrinkFields
				}
			}
		}
	}
	return cur
}

// shrinkOps proposes smaller variants of op i: each halves or zeroes
// one numeric field, bounded so the sequence terminates.
func shrinkOps(p Plan, i int) []Plan {
	var out []Plan
	with := func(o Op) Plan {
		ops := append([]Op(nil), p.Ops...)
		ops[i] = o
		return Plan{Seed: p.Seed, Ops: ops}
	}
	o := p.Ops[i]
	if o.P > 0.01 {
		c := o
		c.P = o.P / 2
		out = append(out, with(c))
	}
	if o.N > 1 {
		c := o
		c.N = o.N / 2
		out = append(out, with(c))
	}
	if o.Duration > 0.05 {
		c := o
		c.Duration = o.Duration / 2
		out = append(out, with(c))
	}
	if o.Start != 0 {
		c := o
		c.Start = 0
		out = append(out, with(c))
	}
	return out
}
