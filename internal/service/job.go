package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nlfl/internal/matmul"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

// ChaosSpec scopes a fault scenario to one job: the single-run chaos
// options, validated and defaulted by the same runtime code. Worker
// indices in the scenario are *fleet* worker ids; event times are
// seconds relative to the job's start (its first chunk handout). The
// faults run only inside the job: a crashed worker is dead for this job
// — its leases and owned backlog are reclaimed and re-planned over the
// job's surviving slice — while the same worker keeps serving every
// other job untouched. A chunk exceeding MaxRetries fails this job with
// ErrJobFailed.
type ChaosSpec = nrt.Chaos

// JobSpec describes one outer-product job submitted to the fleet.
type JobSpec struct {
	// Tenant is the accounting/fair-share identity; "" means "default".
	Tenant string
	// N is the problem size (output is N×N).
	N int
	// Strategy picks the partition: "hom" (default), "hom/k", "het" or
	// "wf" (caller-weighted PERI-SUM; requires Weights).
	Strategy string
	// Weights are the per-slice-worker load weights for the "wf"
	// strategy, in the order of the job's admitted slice (ascending
	// fleet ids) — typically a water-filling split from measured rates.
	// Required with "wf", forbidden otherwise; the length must match the
	// admitted slice (preview it with Fleet.SliceFor).
	Weights []float64
	// A and B are the input vectors (length N); nil inputs are generated
	// deterministically from Seed.
	A, B []float64
	// Seed drives input generation when A/B are nil.
	Seed int64
	// Deadline, when positive, bounds the job's life from submission;
	// expiry cancels it (handle.Wait returns context.DeadlineExceeded)
	// and its leases are reclaimed without touching other jobs.
	Deadline time.Duration
	// MaxWorkers, when positive, further caps the job's fleet slice.
	MaxWorkers int
	// Chaos optionally scopes a fault scenario to this job.
	Chaos ChaosSpec
}

func (s JobSpec) withDefaults() JobSpec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Strategy == "" {
		s.Strategy = "hom"
	}
	return s
}

func (s JobSpec) validate(p int) error {
	if s.N <= 0 {
		return fmt.Errorf("service: job size n=%d", s.N)
	}
	if (s.A != nil) != (s.B != nil) {
		return fmt.Errorf("service: provide both A and B or neither")
	}
	if s.A != nil && (len(s.A) != s.N || len(s.B) != s.N) {
		return fmt.Errorf("service: inputs sized %d/%d for n=%d", len(s.A), len(s.B), s.N)
	}
	if s.MaxWorkers < 0 {
		return fmt.Errorf("service: negative MaxWorkers %d", s.MaxWorkers)
	}
	if s.Strategy == "wf" && len(s.Weights) == 0 {
		return fmt.Errorf("service: strategy wf requires Weights")
	}
	if s.Strategy != "wf" && s.Weights != nil {
		return fmt.Errorf("service: Weights are only meaningful with strategy wf (got %q)", s.Strategy)
	}
	if s.Chaos.Enabled() {
		if err := s.Chaos.Validate(p); err != nil {
			return fmt.Errorf("service: job chaos: %w", err)
		}
	}
	return nil
}

// jobState is a job's lifecycle stage (fleet.mu-guarded).
type jobState int

const (
	jsActive jobState = iota
	jsDone
	jsFailed
)

// job is one admitted job: its identity and slice, the executor that
// runs its chunks, and the fleet's bookkeeping around it. The executor
// owns the queue, leases, fault table, output and ledger; everything
// else is guarded by fleet.mu.
type job struct {
	id        int64
	tenant    string
	n         int
	strategy  string
	slice     []int // fleet worker ids, ascending
	ex        *nrt.Executor
	chaos     bool
	predicted float64
	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}

	submitAt float64
	startAt  float64 // -1 until the first chunk handout
	doneAt   float64

	// serving counts chunks of this job currently in flight on workers.
	// A job completes only when every cell is committed AND serving
	// drains to 0, so losing speculative copies settle their waste into
	// the ledger before the report freezes (the fleet analogue of Run's
	// wg.Wait).
	serving int
	// committedCells is the attained service: the SRPT and ii keys and
	// the completion test.
	committedCells float64

	// autoscaled marks a slice sized by the capacity model (fleet
	// AutoscaleTheta > 0); predictedMakespan is the model's forecast for
	// the admitted slice, frozen at admission.
	autoscaled        bool
	predictedMakespan float64

	state  jobState
	err    error
	report *JobReport
}

// terminal reports whether the job has been finalized (fleet.mu held).
func (j *job) terminal() bool { return j.state != jsActive }

// remainingCells is the SRPT key input (fleet.mu held).
func (j *job) remainingCells() float64 { return float64(j.n*j.n) - j.committedCells }

// JobHandle is the caller's view of an admitted job.
type JobHandle struct {
	f *Fleet
	j *job
}

// ID returns the fleet-assigned job id.
func (h *JobHandle) ID() int64 { return h.j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (h *JobHandle) Done() <-chan struct{} { return h.j.done }

// Cancel cancels the job: its leases are reclaimed at the next
// scheduling step, in-flight chunks commit to nowhere (accounted as this
// job's waste), and Wait returns context.Canceled. Other jobs never
// notice. Idempotent; a no-op once the job is terminal.
func (h *JobHandle) Cancel() { h.j.cancel() }

// Wait blocks until the job is terminal (or ctx expires) and returns its
// report. The error is nil for success; ErrJobFailed, ErrFleetClosed,
// context.Canceled or context.DeadlineExceeded otherwise — the report is
// still returned alongside a job error, carrying the partial ledgers.
func (h *JobHandle) Wait(ctx context.Context) (*JobReport, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-h.j.done:
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return h.j.report, h.j.err
}

// Report returns the job's report if it is terminal, else nil.
func (h *JobHandle) Report() *JobReport {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return h.j.report
}

// JobReport is the per-job ledger, frozen at finalize. The chaos
// identities of the single-run Report hold here per job: DataShipped =
// CommittedVolume + WastedData, and CommittedVolume = PlanVolume +
// ReplannedVolume (every fault's cost is attributed to the job that
// carried the fault, never to its neighbors).
type JobReport struct {
	ID       int64
	Tenant   string
	N        int
	Strategy string
	// Workers lists the fleet slice the job was admitted with.
	Workers []int

	SubmitTime float64
	StartTime  float64 // -1 if never started
	DoneTime   float64
	// Latency is DoneTime − SubmitTime (queueing + service).
	Latency float64
	// Makespan is DoneTime − StartTime (service only); 0 if never started.
	Makespan float64

	// PlanVolume is the executed plan's geometric volume Σ(wᵢ+hᵢ);
	// Predicted is the strategy's analytic closed form (they coincide on
	// snapped platforms).
	PlanVolume      float64
	Predicted       float64
	ReplannedVolume float64
	DataShipped     float64
	CommittedVolume float64
	WastedData      float64
	WastedWorkCells float64
	LostWorkCells   float64
	ReclaimedCells  int
	RetriedChunks   int
	SpeculativeWins int
	DegradedWorkers int
	LinkCapacity    float64
	// Topology names the fleet's network family; Edges carries its
	// per-edge capacities and SpanRoutes the edges each worker's delivery
	// spans occupy. Expect arms the per-edge capacity sweep with them —
	// capacity only, no volume ledger, because the edges are shared by
	// every job while this report sees one job's traffic.
	Topology   string
	Edges      []nrt.EdgeReport
	SpanRoutes [][]int

	Failed bool
	Err    string

	// Autoscaled marks a slice sized by the fleet's capacity model;
	// PredictedMakespan is the model's service-time forecast for that
	// slice (0 when autoscaling was off).
	Autoscaled        bool
	PredictedMakespan float64

	// Out is the verified output matrix (nil when the job failed).
	Out *matmul.Matrix
	// Trace is the job's own timeline over the *fleet's* workers; rows
	// outside the slice stay empty unless chaos speculation pulled them in.
	Trace *trace.Timeline
	// Chaos records whether the job carried a fault scenario.
	Chaos bool
}

// Expect builds the trace oracle for this job's timeline, mirroring the
// single-run contract: exact plan-volume bound for clean jobs, plan
// floor + exactly-once + waste ledgers under chaos.
func (r *JobReport) Expect(relTol float64) *trace.Expect {
	nn := float64(r.N) * float64(r.N)
	e := &trace.Expect{
		HasWork:       true,
		TotalWork:     nn,
		ProcessedWork: nn,
		HasComm:       true,
		ShippedData:   r.DataShipped,
		Bound:         r.PlanVolume,
		BoundKind:     trace.BoundExact,
		BoundName:     "Comm_" + r.Strategy,
		LinkCapacity:  r.LinkCapacity,
		Tol:           relTol,
	}
	if r.Chaos {
		e.Bound = r.PlanVolume
		e.BoundKind = trace.BoundLower
		e.BoundName = "Comm_" + r.Strategy + " plan floor"
		e.ExactlyOnce = true
		e.WastedWork = r.WastedWorkCells
		e.LostWork = r.LostWorkCells
	}
	if len(r.Edges) > 0 {
		// Capacity sweep only: a single job's traffic is a subset of the
		// shared edges' load, so exceeding capacity is still a violation
		// but a per-edge volume ledger would be meaningless here.
		e.Edges = make([]trace.ExpectEdge, len(r.Edges))
		for i, ed := range r.Edges {
			e.Edges[i] = trace.ExpectEdge{Name: ed.Name, Capacity: ed.Capacity}
		}
		e.Routes = r.SpanRoutes
	}
	return e
}

// finalizeLocked moves a job to its terminal state exactly once: freezes
// the report, settles the tenant account, removes the job from the
// active set, answers every waiter and wakes the pool. err == nil means
// success: the executor's closing audit and the configured spot
// verification run first, and a failure there fails the job.
func (f *Fleet) finalizeLocked(j *job, err error) {
	if j.terminal() {
		return
	}
	ledger, tl, cerr := j.ex.Close(err == nil, f.cfg.VerifyEvery)
	if err == nil && cerr != nil {
		err = fmt.Errorf("%w: %w", ErrJobFailed, cerr)
	}
	now := f.now()
	j.doneAt = now
	j.err = err
	if err == nil {
		j.state = jsDone
	} else {
		j.state = jsFailed
	}
	rep := &JobReport{
		ID:       j.id,
		Tenant:   j.tenant,
		N:        j.n,
		Strategy: j.strategy,
		Workers:  append([]int(nil), j.slice...),

		SubmitTime: j.submitAt,
		StartTime:  j.startAt,
		DoneTime:   now,
		Latency:    now - j.submitAt,

		PlanVolume:      ledger.PlanVolume,
		Predicted:       j.predicted,
		ReplannedVolume: ledger.ReplanExtra,
		DataShipped:     ledger.DataVolume,
		CommittedVolume: ledger.CommittedVolume,
		WastedData:      ledger.WastedData,
		WastedWorkCells: ledger.WastedWork,
		LostWorkCells:   ledger.LostWork,
		ReclaimedCells:  ledger.ReclaimedCells,
		RetriedChunks:   ledger.Retried,
		SpeculativeWins: ledger.SpecWins,
		DegradedWorkers: ledger.Degraded,
		LinkCapacity:    f.net.Capacity(),
		Topology:        f.Topology(),
		Edges:           f.edgeRows(),
		SpanRoutes:      f.net.SpanRoutes(),

		Autoscaled:        j.autoscaled,
		PredictedMakespan: j.predictedMakespan,

		Failed: err != nil,
		Trace:  tl,
		Chaos:  j.chaos,
	}
	if j.startAt >= 0 {
		rep.Makespan = now - j.startAt
	}
	if err == nil {
		rep.Out = j.ex.Out()
	} else {
		rep.Err = err.Error()
	}
	j.report = rep

	led := f.ledgerLocked(j.tenant)
	led.settle(rep)
	switch {
	case err == nil:
		f.completed++
		led.Completed++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		f.cancelledJobs++
		led.Cancelled++
	default:
		f.failed++
		led.Failed++
	}

	for i, k := range f.active {
		if k == j {
			f.active = append(f.active[:i], f.active[i+1:]...)
			break
		}
	}
	f.finishedJobs++
	f.probationTickLocked()
	close(j.done)
	j.cancel()
	f.wakeAll()
}
