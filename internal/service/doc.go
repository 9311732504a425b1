// Package service is the multi-tenant fleet layer: a long-lived worker
// pool that admits a *stream* of outer-product jobs from many tenants
// and runs them concurrently over shared token buckets and one shared
// one-port master link — the production shape of the paper's platform,
// where `runtime.Run`'s one-job-at-a-time pool becomes a service.
//
// Robustness is the organizing principle:
//
//   - Admission control: the queue of unfinished jobs is bounded
//     fleet-wide and per tenant; overload sheds new work with a typed
//     rejection instead of queueing without bound. Every rejection is
//     an *AdmissionError carrying a machine-readable RejectReason
//     (quota pressure, fleet overload, drain, no healthy worker, or
//     the capacity model's amdahl-cap verdict) and unwrapping to
//     ErrAdmissionRejected, so errors.Is keeps working while errors.As
//     recovers the cause. Each job is admitted with only the fleet
//     slice it can actually use (an Amdahl-style cap — workers beyond
//     N²/MinCellsPerWorker would cost communication without buying
//     compute, the no-free-lunch knee).
//   - Capacity-model autoscaling: with Config.AutoscaleTheta > 0, the
//     fleet additionally caps each job's slice at the capacity
//     planner's speedup knee for its size over the healthy workers
//     (capacity.Model.Recommend), records the knee prediction on the
//     JobReport (Autoscaled, PredictedMakespan), and sheds jobs whose
//     deadline even the knee-sized slice cannot meet with
//     RejectAmdahlCap — if the knee can't make it, no admissible slice
//     can. See docs/CAPACITY.md for the operator guide.
//   - Isolation: every job runs on its own runtime.Executor — the
//     engine a single Run uses — so faults are scoped to the job that
//     carries them. A chaos-crashed worker dies *for that job only* —
//     its leases and backlog are reclaimed and re-planned onto the
//     job's surviving workers (PERI-SUM) while the same worker keeps
//     serving every other job. Per-tenant fair-share
//     ordering keeps one tenant's flood from starving the rest, and the
//     bounded per-tenant quota keeps the flood from occupying the queue.
//   - Deadlines and cancellation: every job carries a context; deadline
//     expiry or cancellation reclaims its leases promptly and cleanly —
//     in-flight chunks of a dead job commit to nowhere (accounted as
//     waste) and never poison another job's ledger.
//   - Health: workers that keep dying inside jobs accumulate strikes and
//     are quarantined — excluded from new jobs' slices — then readmitted
//     after a probation of completed jobs.
//   - Graceful degradation: Drain stops admission and finishes (or
//     cleanly fails) the in-flight jobs; Close always leaves every
//     waiter answered.
//
// Scheduling policies (see Policy): naive FIFO (job-exclusive, the
// provably bad baseline of Gallet–Robert–Vivien's multi-load analysis),
// an SRPT-like shortest-remaining-first with anti-starvation aging, and
// interleaved installments (least-attained-service round-robin, the
// multi-installment fix from the same line of work). Both non-FIFO
// policies order tenants by attained service first — the fair-share
// guarantee — and jobs within the tenant by the policy key.
package service
