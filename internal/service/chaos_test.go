package service

import (
	"context"
	"errors"
	"math"
	"testing"

	"nlfl/internal/faults"
	"nlfl/internal/trace"
)

// chaosConfig is slow enough that job-scoped fault instants land inside
// the jobs that carry them.
func chaosConfig() Config {
	return Config{
		Speeds:        []float64{1, 2, 3, 4},
		WorkPerSecond: 2e4,
		Policy:        PolicyInterleaved,
		VerifyEvery:   251,
	}
}

// TestJobScopedCrashIsolation is the tentpole invariant: a chaos crash
// inside one tenant's job degrades that job only. The crashed worker's
// leases are re-planned onto the job's surviving slice, while the same
// worker keeps serving every other tenant, whose ledgers stay exact.
func TestJobScopedCrashIsolation(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var clean []*JobHandle
	for i := 0; i < 4; i++ {
		clean = append(clean, mustSubmit(t, f, JobSpec{Tenant: "steady", N: 64, Seed: int64(i)}))
	}
	chaotic := mustSubmit(t, f, JobSpec{
		Tenant:   "hammered",
		N:        64,
		Strategy: "het", // owned backlogs exercise survivor re-planning
		Seed:     99,
		Chaos: ChaosSpec{
			Scenario:   faults.SingleCrash(2, 0.01),
			MaxRetries: 3,
		},
	})

	rep := waitOK(t, chaotic)
	if rep.ReclaimedCells == 0 || rep.DegradedWorkers != 1 {
		t.Fatalf("chaos job saw no reclamation: reclaimed=%d degraded=%d", rep.ReclaimedCells, rep.DegradedWorkers)
	}
	if rep.ReplannedVolume <= 0 {
		t.Errorf("re-plan added no volume: %v", rep.ReplannedVolume)
	}
	checkJob(t, rep)

	for _, h := range clean {
		cr := waitOK(t, h)
		if cr.WastedData != 0 || cr.ReclaimedCells != 0 || cr.DegradedWorkers != 0 {
			t.Errorf("clean job %d degraded: waste=%v reclaimed=%d degraded=%d",
				cr.ID, cr.WastedData, cr.ReclaimedCells, cr.DegradedWorkers)
		}
		if d := cr.CommittedVolume - cr.PlanVolume; math.Abs(d) > 1e-9 {
			t.Errorf("clean job %d committed %v != plan %v", cr.ID, cr.CommittedVolume, cr.PlanVolume)
		}
		checkJob(t, cr)
	}

	acc := f.Accounting()
	for _, ta := range acc.Tenants {
		switch ta.Tenant {
		case "steady":
			if ta.Failed != 0 || ta.WastedData != 0 || ta.ReclaimedCells != 0 {
				t.Errorf("steady tenant degraded: %+v", ta)
			}
		case "hammered":
			if ta.ReclaimedCells == 0 || ta.DegradedEvents != 1 {
				t.Errorf("hammered tenant account: %+v", ta)
			}
		}
	}
	// The crash cost the worker a health strike, but (below the default
	// budget of 2) no quarantine.
	hs := f.Health()
	if hs[2].Strikes != 1 || hs[2].Quarantined {
		t.Fatalf("worker 2 health: %+v", hs[2])
	}
}

func TestSpeculationBeatsJobScopedStraggler(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep := waitOK(t, mustSubmit(t, f, JobSpec{
		Tenant:   "spec",
		N:        64,
		Strategy: "het",
		Seed:     5,
		Chaos: ChaosSpec{
			Scenario: faults.Scenario{Events: []faults.Event{
				{Kind: faults.Straggler, Worker: 1, Time: 0, Until: 30, Factor: 0.2},
			}},
			MaxRetries:     3,
			SpeculateAfter: 0.025,
		},
	}))
	if rep.SpeculativeWins == 0 {
		t.Fatalf("speculation never won: %+v", rep)
	}
	if rep.WastedWorkCells == 0 {
		t.Errorf("losing straggler copy not accounted as waste")
	}
	checkJob(t, rep)
}

func TestChaosBudgetExhaustionFailsOnlyThatJob(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	steady := mustSubmit(t, f, JobSpec{Tenant: "steady", N: 64, Seed: 1})
	doomed := mustSubmit(t, f, JobSpec{
		Tenant:   "doomed",
		N:        64,
		Strategy: "het",
		Seed:     2,
		Chaos:    ChaosSpec{Scenario: faults.SingleCrash(3, 0.005), MaxRetries: 0},
	})
	rep, err := doomed.Wait(context.Background())
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("doomed job: %v, want ErrJobFailed", err)
	}
	if rep == nil || !rep.Failed || rep.Err == "" {
		t.Fatalf("doomed report: %+v", rep)
	}
	checkJob(t, waitOK(t, steady))
}

func TestAllSliceWorkersCrashedFailsJob(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := mustSubmit(t, f, JobSpec{
		Tenant:     "solo",
		N:          64,
		MaxWorkers: 1, // slice is worker 3 alone
		Seed:       3,
		Chaos:      ChaosSpec{Scenario: faults.SingleCrash(3, 0.005), MaxRetries: 5},
	})
	if _, err := h.Wait(context.Background()); !errors.Is(err, ErrJobFailed) {
		t.Fatalf("all-dead job: %v, want ErrJobFailed", err)
	}
}

func TestQuarantineAndReadmission(t *testing.T) {
	cfg := chaosConfig()
	cfg.QuarantineAfter = 1
	cfg.ProbationJobs = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// One crash quarantines worker 2 under the strike budget of 1.
	waitOK(t, mustSubmit(t, f, JobSpec{
		Tenant: "a", N: 64, Strategy: "het", Seed: 1,
		Chaos: ChaosSpec{Scenario: faults.SingleCrash(2, 0.01), MaxRetries: 3},
	}))
	hs := f.Health()
	if !hs[2].Quarantined {
		t.Fatalf("worker 2 not quarantined: %+v", hs[2])
	}

	// New jobs are sliced without the quarantined worker.
	rep := waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "a", N: 96, Seed: 2}))
	for _, w := range rep.Workers {
		if w == 2 {
			t.Fatalf("quarantined worker in slice %v", rep.Workers)
		}
	}

	// Probation: after two more finished jobs it is readmitted.
	waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "a", N: 48, Seed: 3}))
	hs = f.Health()
	if hs[2].Quarantined {
		t.Fatalf("worker 2 still quarantined after probation: %+v", hs[2])
	}
	rep = waitOK(t, mustSubmit(t, f, JobSpec{Tenant: "a", N: 96, Seed: 4}))
	found := false
	for _, w := range rep.Workers {
		found = found || w == 2
	}
	if !found {
		t.Fatalf("readmitted worker missing from slice %v", rep.Workers)
	}
}

// TestChaosTraceOracle runs the chaos job's timeline through the full
// trace checker with the plan-floor + exactly-once expectations.
func TestChaosTraceOracle(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep := waitOK(t, mustSubmit(t, f, JobSpec{
		Tenant: "oracle", N: 64, Strategy: "het", Seed: 11,
		Chaos: ChaosSpec{Scenario: faults.SingleCrash(1, 0.01), MaxRetries: 3},
	}))
	exp := rep.Expect(1e-9)
	if exp.BoundKind != trace.BoundLower || !exp.ExactlyOnce {
		t.Fatalf("chaos expectations not armed: %+v", exp)
	}
	if vs := trace.Check(rep.Trace, exp); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("trace: %s", v)
		}
	}
}

// TestJobScopedLinkSlowStretchesOnlyItsOwnWindows pins LinkSlow parity
// with the single-run runtime: a job-scoped LinkSlow slows the worker's
// *link* for that job — its booked Comm windows on the worker last
// exactly 1/factor times the unslowed booking of the same data — while a
// clean job sharing the link books every window at full rate and keeps
// exact ledgers. Booked windows are computed, not measured.
func TestJobScopedLinkSlowStretchesOnlyItsOwnWindows(t *testing.T) {
	const (
		port   = 4e5 // master-port elements/s
		slowW  = 3
		factor = 0.25
	)
	cfg := chaosConfig()
	cfg.Link.ElemsPerSecond = port
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slowed := mustSubmit(t, f, JobSpec{
		Tenant: "slowed", N: 64, Strategy: "het", Seed: 21,
		Chaos: ChaosSpec{Scenario: faults.Scenario{Events: []faults.Event{
			{Kind: faults.LinkSlow, Worker: slowW, Time: 0, Until: 1e6, Factor: factor},
		}}},
	})
	clean := mustSubmit(t, f, JobSpec{Tenant: "clean", N: 64, Strategy: "het", Seed: 22})

	// checkWindows asserts every Comm span of rep lasts want(w)·Data/port.
	checkWindows := func(rep *JobReport, stretch func(w int) float64) (spans int) {
		t.Helper()
		for w, row := range rep.Trace.Spans {
			for _, sp := range row {
				if sp.Kind != trace.Comm {
					continue
				}
				spans++
				want := stretch(w) * sp.Data / port
				if got := sp.End - sp.Start; math.Abs(got-want) > 1e-9*want {
					t.Errorf("job %d worker %d task %d: window %v, want %v", rep.ID, w, sp.Task, got, want)
				}
			}
		}
		return spans
	}
	srep := waitOK(t, slowed)
	checkJob(t, srep)
	slowSpans := 0
	for _, sp := range srep.Trace.Spans[slowW] {
		if sp.Kind == trace.Comm {
			slowSpans++
		}
	}
	if slowSpans == 0 {
		t.Fatalf("worker %d shipped nothing for the slowed job", slowW)
	}
	checkWindows(srep, func(w int) float64 {
		if w == slowW {
			return 1 / factor
		}
		return 1
	})
	if srep.WastedData != 0 || srep.ReplannedVolume != 0 || srep.DataShipped != srep.PlanVolume {
		t.Errorf("a slow link changed the slowed job's volumes: %+v", srep)
	}

	crep := waitOK(t, clean)
	checkJob(t, crep)
	if checkWindows(crep, func(int) float64 { return 1 }) == 0 {
		t.Fatal("clean job shipped nothing")
	}
	if crep.WastedData != 0 || crep.ReplannedVolume != 0 || crep.RetriedChunks != 0 ||
		crep.DataShipped != crep.PlanVolume || crep.CommittedVolume != crep.PlanVolume {
		t.Errorf("clean job's ledger changed beside the slowed job: %+v", crep)
	}
}

// TestSubmitRejectsNonFiniteBackoff: job chaos options are validated by
// the runtime's own Chaos.Validate, so a non-finite backoff bound is a
// spec error at Submit, not a job that sleeps forever.
func TestSubmitRejectsNonFiniteBackoff(t *testing.T) {
	f, err := New(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Submit(JobSpec{
		Tenant: "bad", N: 64, Seed: 1,
		Chaos: ChaosSpec{Scenario: faults.SingleCrash(1, 0.01), MaxRetries: 1, BackoffMax: math.Inf(1)},
	})
	if err == nil {
		t.Fatal("Submit accepted BackoffMax = +Inf")
	}
	if errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("a malformed spec is not an admission rejection: %v", err)
	}
}
