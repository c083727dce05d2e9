package core

import (
	"context"
	"errors"
	"testing"

	"netconstant/internal/cancel"
	"netconstant/internal/cloud"
	"netconstant/internal/stats"
)

// TestAdvisorCalibrateCtxCancelled: a cancelled context must abort the
// advisor's calibrate-and-analyze path with a typed cancellation and
// leave no half-installed guidance.
func TestAdvisorCalibrateCtxCancelled(t *testing.T) {
	vc, err := cloud.NewProvider(cloud.ProviderConfig{Seed: 3}).Provision(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewAdvisor(vc, stats.NewRNG(5), AdvisorConfig{TimeStep: 3})
	ctx, stop := context.WithCancel(context.Background())
	stop()
	err = adv.CalibrateCtx(ctx)
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want typed cancellation", err)
	}
	if adv.Constant() != nil || adv.Calibrations() != 0 {
		t.Error("cancelled calibration left partial advisor state installed")
	}
	// The advisor must still calibrate fine afterwards.
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatalf("post-cancel Calibrate: %v", err)
	}
	if adv.Constant() == nil {
		t.Error("guidance missing after successful calibration")
	}
}

// TestAdvisorAnalyzeCtxCancelled: cancellation must also reach the
// solver iterations when analyzing a pre-recorded trace.
func TestAdvisorAnalyzeCtxCancelled(t *testing.T) {
	vc, err := cloud.NewProvider(cloud.ProviderConfig{Seed: 3}).Provision(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := cloud.CalibrateTPCtx(context.Background(), vc, stats.NewRNG(5), 3, 1, cloud.CalibrationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	adv := NewAdvisor(vc, stats.NewRNG(6), AdvisorConfig{TimeStep: 3})
	ctx, stop := context.WithCancel(context.Background())
	stop()
	if err := adv.AnalyzeCalibrationCtx(ctx, tc); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v, want typed cancellation from the solver loop", err)
	}
}
