// Package runtime is the measured-performance counterpart of the
// simulators: a real demand-driven worker pool that executes the paper's
// three distribution strategies — Homogeneous Blocks (Comm_hom), the
// integer-rounded Comm_hom/k refinement, and Heterogeneous Blocks
// (Comm_het) — end-to-end on real vectors, producing the actual N×N outer
// product while metering every byte that moves.
//
// The moving parts mirror the paper's platform model:
//
//   - Each worker is a goroutine whose *relative speed* is enforced by a
//     token bucket: computing a chunk of c cells first drains c tokens
//     from a bucket refilled at speed·WorkPerSecond tokens per second, so
//     a 7×-faster worker really does finish 7× more area per wall-clock
//     second, even on a single CPU.
//   - Chunks live in a sharded work queue. Demand-driven strategies tag
//     chunks ownerless: a worker drains its home shard and then steals
//     from the others, reproducing the claim-when-idle process behind the
//     Comm_hom/k imbalance analysis. The Heterogeneous Blocks plan tags
//     each chunk with its owner; owned chunks are never stolen, because
//     the whole point of the layout is that the data was shipped to that
//     worker once.
//   - Before computing a chunk the worker copies the a̅- and b̅-intervals
//     the chunk needs into worker-local buffers — the shipped data — and
//     computes only from those copies. The copy is recorded as a Comm
//     span and the kernel execution as a Compute span on the job's
//     timeline, so trace.Check audits a measured run with the same
//     invariant oracle that audits the simulators, and the summed Comm
//     span data is the measured communication volume the bench harness
//     cross-checks against the closed forms (2N·√(Σsᵢ/s₁) for Comm_hom).
//
// One Executor per job holds all of this — the queue or lease table,
// the compiled fault table, the recovery ledger, the closing audit and
// the serve step (ship, stall, compute, commit). Run drives it with one
// goroutine per worker; internal/service's fleet drives one Executor per
// admitted job from its long-lived workers.
package runtime
