package chaos

import (
	"encoding/json"
	"testing"

	"netconstant/internal/stats"
)

// TestGeneratePlanDeterministic: identical seeds draw identical plans.
func TestGeneratePlanDeterministic(t *testing.T) {
	a := GeneratePlan(stats.NewRNG(7), 7, 6)
	b := GeneratePlan(stats.NewRNG(7), 7, 6)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed, different plans:\n%s\n%s", ja, jb)
	}
	if len(a.Ops) < 1 || len(a.Ops) > 6 {
		t.Fatalf("plan has %d ops, want 1..6", len(a.Ops))
	}
}

// TestPlanScenarioComposition: fault ops compose into the scenario with
// max/sum semantics and windows scaled by the calibration cost.
func TestPlanScenarioComposition(t *testing.T) {
	p := Plan{Seed: 3, Ops: []Op{
		{Kind: OpProbeLoss, P: 0.1},
		{Kind: OpProbeLoss, P: 0.3},
		{Kind: OpStraggler, N: 1},
		{Kind: OpStraggler, N: 2},
		{Kind: OpBlackout, Start: 0.5, Duration: 1.0},
		{Kind: OpKill, N: 2}, // not a fault op; must not leak into the scenario
	}}
	sc := p.Scenario(10, 8)
	if sc.ProbeLoss != 0.3 {
		t.Errorf("ProbeLoss = %v, want max 0.3", sc.ProbeLoss)
	}
	if sc.Stragglers != 3 {
		t.Errorf("Stragglers = %d, want sum 3", sc.Stragglers)
	}
	if len(sc.Blackouts) != 1 || sc.Blackouts[0].Start != 5 || sc.Blackouts[0].Duration != 10 {
		t.Errorf("Blackouts = %+v, want one window [5,15)", sc.Blackouts)
	}
	if len(sc.Blackouts[0].VMs) != 4 {
		t.Errorf("blackout darkens %d VMs, want n/2 = 4", len(sc.Blackouts[0].VMs))
	}
	if sc.Seed != 3 {
		t.Errorf("Seed = %d, want the plan's", sc.Seed)
	}
}

// TestKillPoint: an explicit kill op wins (clamped); otherwise the
// seed picks a point in [1, max].
func TestKillPoint(t *testing.T) {
	if k := (Plan{Ops: []Op{{Kind: OpKill, N: 3}}}).KillPoint(8); k != 3 {
		t.Errorf("explicit kill = %d, want 3", k)
	}
	if k := (Plan{Ops: []Op{{Kind: OpKill, N: 9}}}).KillPoint(4); k != 4 {
		t.Errorf("clamped kill = %d, want 4", k)
	}
	for seed := int64(0); seed < 20; seed++ {
		k := (Plan{Seed: seed}).KillPoint(5)
		if k < 1 || k > 5 {
			t.Fatalf("seeded kill point %d out of [1,5] for seed %d", k, seed)
		}
	}
}

// TestShrinkRegression: the shrinker reduces a bloated failing plan to
// a minimal reproducer. The seeded predicate fails iff the plan carries
// a blackout op, so the minimal plan is exactly one (shrunken) blackout.
func TestShrinkRegression(t *testing.T) {
	failing := func(p Plan) []Failure {
		for _, o := range p.Ops {
			if o.Kind == OpBlackout {
				return []Failure{{Oracle: "fixture", Detail: "blackout present"}}
			}
		}
		return nil
	}
	bloated := Plan{Seed: 11, Ops: []Op{
		{Kind: OpProbeLoss, P: 0.4},
		{Kind: OpStraggler, N: 3},
		{Kind: OpBlackout, Start: 0.9, Duration: 1.2},
		{Kind: OpChurn, P: 4000},
		{Kind: OpBlackout, Start: 0.2, Duration: 0.8},
		{Kind: OpBitFlip, N: 4},
	}}
	minimal := Shrink(bloated, failing)
	if len(minimal.Ops) != 1 || minimal.Ops[0].Kind != OpBlackout {
		t.Fatalf("shrunk to %s, want exactly one blackout op", minimal)
	}
	if o := minimal.Ops[0]; o.Start != 0 || o.Duration > 0.05 {
		t.Errorf("numeric fields not minimized: %+v", o)
	}
	if len(failing(minimal)) == 0 {
		t.Fatal("shrinker returned a passing plan")
	}
	// A plan that never failed comes back untouched.
	passing := Plan{Seed: 1, Ops: []Op{{Kind: OpProbeLoss, P: 0.2}}}
	if got := Shrink(passing, failing); len(got.Ops) != 1 || got.Ops[0].P != 0.2 {
		t.Errorf("passing plan was modified: %s", got)
	}
}

// TestJournalOracleSeededPlans: the damage oracle holds across every
// damage kind on seeded plans — the checkpoint layer's recovery
// contract is exercised directly, without a full campaign.
func TestJournalOracleSeededPlans(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := Plan{Seed: seed, Ops: []Op{
			{Kind: OpTruncate, N: 3},
			{Kind: OpBitFlip, N: 3},
			{Kind: OpZeroFill, N: 3},
			{Kind: OpDupeRecord, N: 2},
		}}
		if fails := oracleJournal(p); len(fails) > 0 {
			t.Errorf("seed %d: %v", seed, fails)
		}
	}
}

// TestHealthOracleSeededPlan: a representative mixed-fault plan must
// satisfy the degradation ladder and determinism invariants.
func TestHealthOracleSeededPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration-heavy")
	}
	p := Plan{Seed: 5, Ops: []Op{
		{Kind: OpProbeLoss, P: 0.25},
		{Kind: OpBlackout, Start: 0.1, Duration: 1.0},
		{Kind: OpStraggler, N: 1},
	}}
	if fails := oracleHealth(p); len(fails) > 0 {
		t.Errorf("health oracle: %v", fails)
	}
}

// TestCampaignReproducible is the harness's own contract: the same
// (seed, rounds, maxops) triple yields a byte-identical report — what
// makes a CI failure replayable on any machine. It doubles as the
// seeded soak smoke: both campaigns must also pass every oracle.
func TestCampaignReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fault campaigns")
	}
	a := CampaignWith(42, 2, 5, Options{})
	b := CampaignWith(42, 2, 5, Options{})
	ja, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("same seed, different campaign reports:\n--- a ---\n%s\n--- b ---\n%s", ja, jb)
	}
	if failed := a.Failed(); len(failed) > 0 {
		t.Errorf("seeded campaign broke invariants:\n%s", a)
	}
}

// TestStreamOracleSeededPlans: the streaming oracle holds on seeded
// plans — a regime-triggered partial re-solve installs the batch analysis
// of the edited calibration, bit-for-bit deterministic.
func TestStreamOracleSeededPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration-heavy")
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := Plan{Seed: seed}
		if fails := oracleStream(p); len(fails) > 0 {
			t.Errorf("seed %d: %v", seed, fails)
		}
	}
}
