package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"nlfl/internal/matmul"
	"nlfl/internal/trace"
)

// Typed failures of a resilient run.
var (
	// ErrWorkerFailed marks a run lost to worker death: a goroutine
	// panicked, a crashed worker's chunk had no retry budget left, or no
	// worker survived to finish the domain.
	ErrWorkerFailed = errors.New("runtime: worker failed")
	// ErrTransferFailed marks a run lost to the network: a chunk's
	// transfer was dropped more times than the retry budget allows.
	ErrTransferFailed = errors.New("runtime: transfer failed")
)

// Options configures the worker pool.
type Options struct {
	// Speeds are the workers' relative speeds (one entry per worker, all
	// positive). Required.
	Speeds []float64
	// WorkPerSecond is the cell-update rate of a speed-1 worker — the
	// token-bucket refill scale. 0 selects 2e6 cells/s, fast enough for
	// sub-second benches yet slow enough that the throttle (not the real
	// CPU) sets the pace, so relative speeds are honored even on one core.
	WorkPerSecond float64
	// Burst is the token-bucket capacity in cells; 0 selects 5 ms of
	// credit at the worker's rate.
	Burst float64
	// VerifyEvery, when positive, spot-checks every VerifyEvery-th output
	// cell against a[i]·b[j] after the run and fails the run on mismatch.
	VerifyEvery int
	// Link models the master's outgoing bandwidth (see Link); the zero
	// value ships chunk inputs at memcpy speed. Link is the star-shaped
	// shorthand for Topology and cannot be combined with it.
	Link Link
	// Topology selects the modeled network shape (star, linear
	// daisy-chain, two-source — see Topology). nil with a zero Link
	// ships at memcpy speed; setting Link is equivalent to the Star
	// topology with Link's rates. Mutually exclusive with Link.
	Topology Topology
	// Prefetch enables double-buffered prefetch: while a worker computes
	// one chunk it claims and transfers the next, overlapping the
	// transfer with the current chunk's compute. The overlapped fraction
	// is reported in Report.OverlapFraction. Prefetch cannot be combined
	// with Chaos: a prefetched chunk is a second outstanding lease, which
	// the recovery machinery does not track.
	Prefetch bool
	// Chaos enables the fault-injection layer and its survival machinery
	// (see Chaos). The zero value selects the fault-free fast path.
	Chaos Chaos

	// testHookChunkStart, when set, runs on the worker goroutine right
	// after a chunk is claimed and before its transfer starts — the
	// in-package test seam for forcing panics and interleavings.
	testHookChunkStart func(w int, c Chunk)
}

// Report is the outcome of one measured run.
type Report struct {
	// Strategy, N, Grid and K echo the executed plan.
	Strategy string
	N        int
	Grid     int
	K        int
	// Workers is the pool size, Chunks the number of chunks executed.
	Workers int
	Chunks  int
	// Predicted is the plan's closed-form communication volume.
	Predicted float64
	// DataVolume is the measured volume: vector elements actually copied
	// into worker-local buffers, summed over chunks — retries, drops and
	// speculative duplicates included.
	DataVolume float64
	// WorkCells is the total output cells computed (= N² for a full run).
	WorkCells float64
	// Makespan is the wall-clock run time in seconds.
	Makespan float64
	// PerWorkerData and PerWorkerCells split DataVolume and WorkCells by
	// worker — the measured footprint behind the paper's Figure 2.
	PerWorkerData  []float64
	PerWorkerCells []float64
	// CommTime is the total measured communication seconds summed over
	// workers; PerWorkerCommTime splits it by worker. Under the link
	// model these are the modeled transfer windows, so CommTime ≈
	// DataVolume/bandwidth when the shared port is the bottleneck.
	CommTime          float64
	PerWorkerCommTime []float64
	// OverlapFraction is the fraction of communication time hidden under
	// the same worker's compute spans — ~0 without prefetch, approaching
	// 1 when transfers are fully pipelined behind compute.
	OverlapFraction float64
	// LinkUtilization is each worker's delivery-comm-busy fraction of
	// the makespan — how long its final incoming hop was occupied. On
	// multi-hop topologies this is a per-worker view only; Edges carries
	// the per-edge occupancy that generalizes it.
	LinkUtilization []float64
	// LinkCapacity is the star aggregate master-port rate (0 when the
	// shared port was unconstrained or the topology is not a star);
	// Expect threads it to the trace oracle's aggregate link-capacity
	// invariant. Per-edge capacities — meaningful on every topology —
	// are in Edges and are what Expect's per-edge sweep audits.
	LinkCapacity float64
	// Topology names the modeled network ("star", "chain", "two-source";
	// "" when transfers ran at memcpy speed).
	Topology string
	// Edges is the per-edge measured traffic (nil without a network
	// model): booked volume (drops included), busy seconds, and
	// busy/makespan utilization.
	Edges []EdgeReport
	// RelayVolume is the data that crossed intermediate hops (chain
	// forwarding traffic; 0 on single-hop topologies). DataVolume counts
	// delivered payloads only — relays are extra network occupancy, not
	// extra deliveries.
	RelayVolume float64
	// SpanRoutes[w] lists the edge ids worker w's delivery Comm spans
	// occupy (trace.Expect.Routes); nil rows are unconstrained workers.
	SpanRoutes [][]int

	// Chaos reports whether the run executed under the fault-injection
	// layer; the recovery ledger below is zero without it.
	Chaos bool
	// RetriedChunks counts transfer attempts lost to link drops and
	// retried after backoff.
	RetriedChunks int
	// SpeculativeWins counts chunks whose committed copy was a
	// speculative re-execution rather than the original holder's.
	SpeculativeWins int
	// DegradedWorkers counts workers that died permanently.
	DegradedWorkers int
	// ReclaimedCells counts output cells reclaimed from dead workers and
	// re-planned onto survivors.
	ReclaimedCells float64
	// PlanVolume is the executed plan's geometric volume Σ(wᵢ+hᵢ): the
	// realized closed form, equal to Predicted on snapped platforms and
	// the analytic floor no faulty run can undercut.
	PlanVolume float64
	// CommittedVolume is the data shipped for winning commits only;
	// ReplannedVolume is PlanVolume plus the extra volume survivor
	// re-planning added — the survivor-re-planned closed form that
	// CommittedVolume matches exactly on a clean run. WastedData is the
	// shipping burned by drops, crashed workers' in-flight inputs and
	// losing speculative copies: DataVolume = CommittedVolume +
	// WastedData.
	CommittedVolume float64
	ReplannedVolume float64
	WastedData      float64
	// WastedWorkCells are compute cells burned by losing speculative
	// copies; LostWorkCells are cells destroyed mid-chunk by crashes.
	WastedWorkCells float64
	LostWorkCells   float64

	// Out is the computed product.
	Out *matmul.Matrix
	// Trace is the run's audited timeline (wall-clock seconds).
	Trace *trace.Timeline
}

// Expect returns the invariant-oracle expectations for the run: exact
// work conservation (every cell computed once), the exact shipping ledger,
// the strategy's analytic volume bound within relTol, and — when the run
// modeled a network — the aggregate link-capacity invariant (star) plus
// the per-edge capacity sweep and per-edge volume ledger over the
// topology's edges. Fault-free runs pin the measured volume to the closed form
// exactly; chaos runs switch to the no-free-lunch floor (faults only ever
// add traffic, so the executed plan's volume bounds the measured volume
// from below) and arm the exactly-once invariant, with the waste ledger
// threaded through.
func (r *Report) Expect(relTol float64) *trace.Expect {
	nn := float64(r.N) * float64(r.N)
	e := &trace.Expect{
		HasWork:       true,
		TotalWork:     nn,
		ProcessedWork: nn,
		HasComm:       true,
		ShippedData:   r.DataVolume,
		Bound:         r.Predicted,
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
		e.Edges = make([]trace.ExpectEdge, len(r.Edges))
		for i, ed := range r.Edges {
			e.Edges[i] = trace.ExpectEdge{Name: ed.Name, Capacity: ed.Capacity, Volume: ed.Volume, HasVolume: true}
		}
		e.Routes = r.SpanRoutes
	}
	return e
}

// runner is the shared state of one Run: the job's executor, the pool's
// options and the failure latch.
type runner struct {
	opts Options
	rate float64
	e    *Executor

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error

	// turn[w] opens once worker w−1 has leased its first chunk, so the
	// workers lease their first chunks — and book their first transfers —
	// in id order, not in goroutine start order. Under a network model
	// that booking order decides whose deliveries land first and so which
	// worker steals a demand-driven plan's spare chunks; fixing it makes
	// the chunk-to-worker map, and with it RelayVolume, reproducible.
	turn   []chan struct{}
	passed []bool
}

// pass opens worker w+1's turn, once; only worker w's goroutine calls it.
func (r *runner) pass(w int) {
	if !r.passed[w] {
		r.passed[w] = true
		close(r.turn[w+1])
	}
}

// fail latches the first failure and cancels every worker.
func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

func (r *runner) runErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// settle latches a step's failure; true means the worker must stop (it
// died, the run failed, or the run was cancelled).
func (r *runner) settle(st Step) bool {
	if st.Err != nil {
		r.fail(st.Err)
	}
	return st.halted
}

// guard runs one worker body with panic containment: a panicking worker
// used to take the whole process down (goroutine panics are fatal) or —
// with recovery but no latch — leave wg.Wait stuck behind siblings
// blocked on a link booking. Now it latches ErrWorkerFailed and cancels
// the run.
func (r *runner) guard(w int) {
	defer r.wg.Done()
	defer r.pass(w) // a worker that leaves early must not block the next
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(fmt.Errorf("%w: worker %d panicked: %v", ErrWorkerFailed, w, rec))
		}
	}()
	r.work(w)
}

// Run executes the plan on real vectors — RunContext without external
// cancellation.
func Run(plan *StrategyPlan, a, b []float64, opts Options) (*Report, error) {
	return RunContext(context.Background(), plan, a, b, opts)
}

// RunContext executes the plan on real vectors: len(Speeds) goroutine
// workers drive one Executor. Each pulls chunks from the job's queue,
// ships each chunk's a̅/b̅ intervals into worker-local buffers (the Comm
// span — paced by the bandwidth model when Options.Link is set, raw
// memcpy otherwise), pays the chunk's area to its token bucket and fills
// the output rectangle through the tiled kernel (the Compute span). With
// Options.Prefetch each worker double-buffers: the next chunk's transfer
// runs while the current chunk computes. With Options.Chaos the same
// loop runs the executor's resilient path: scenario faults are injected
// on the live goroutines and survived via leases, retries, speculation
// and survivor re-planning (see Chaos). Cancelling ctx stops the pool at
// the next chunk boundary and returns ctx's error. The returned report
// carries the product, the measured per-worker traffic and comm time,
// the comm/compute overlap fraction, the recovery ledger, and the
// audited timeline of the run.
func RunContext(ctx context.Context, plan *StrategyPlan, a, b []float64, opts Options) (*Report, error) {
	n := plan.N
	if len(a) != n || len(b) != n {
		return nil, fmt.Errorf("runtime: plan is for N=%d, got vectors of %d and %d", n, len(a), len(b))
	}
	if n == 0 {
		return nil, fmt.Errorf("runtime: empty vectors")
	}
	p := len(opts.Speeds)
	if p == 0 {
		return nil, fmt.Errorf("runtime: need at least one worker speed")
	}
	for i, s := range opts.Speeds {
		if s <= 0 {
			return nil, fmt.Errorf("runtime: worker %d has non-positive speed %v", i, s)
		}
	}
	if lp := len(opts.Link.PerWorker); lp != 0 && lp != p {
		return nil, fmt.Errorf("runtime: %d per-worker link rates for %d workers", lp, p)
	}
	topo := opts.Topology
	if topo != nil {
		if opts.Link.Enabled() {
			return nil, fmt.Errorf("runtime: Options.Topology and Options.Link are mutually exclusive (Link is the star shorthand)")
		}
	} else {
		topo = starFromLink(opts.Link, p)
	}
	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() }
	net, err := NewNetwork(topo, p, clock)
	if err != nil {
		return nil, err
	}
	for _, c := range plan.Chunks {
		if c.RowLo < 0 || c.ColLo < 0 || c.RowHi > n || c.ColHi > n || c.Cells() <= 0 {
			return nil, fmt.Errorf("runtime: chunk %d has invalid bounds rows[%d,%d) cols[%d,%d)", c.Task, c.RowLo, c.RowHi, c.ColLo, c.ColHi)
		}
		if c.Owner >= p {
			return nil, fmt.Errorf("runtime: chunk %d owned by worker %d of %d", c.Task, c.Owner, p)
		}
	}
	// Σcells == n² alone is satisfiable by overlaps plus a gap of the
	// same area; require an exact tiling.
	if err := checkTiling(n, plan.Chunks); err != nil {
		return nil, err
	}
	chaosOn := opts.Chaos.Enabled()
	if chaosOn && opts.Prefetch {
		return nil, fmt.Errorf("runtime: Prefetch cannot be combined with Chaos (a prefetched chunk is an untracked second lease)")
	}
	rate := opts.WorkPerSecond
	if rate <= 0 {
		rate = 2e6
	}
	e, err := NewExecutor(plan, a, b, ExecConfig{Speeds: opts.Speeds, Clock: clock, Net: net, Chaos: opts.Chaos})
	if err != nil {
		return nil, err
	}
	e.Begin(0) // a run's faults count from its start

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runner{opts: opts, rate: rate, e: e, ctx: runCtx, cancel: cancel,
		turn: make([]chan struct{}, p+1), passed: make([]bool, p)}
	for w := range r.turn {
		r.turn[w] = make(chan struct{})
	}
	close(r.turn[0])
	for w := 0; w < p; w++ {
		r.wg.Add(1)
		go r.guard(w)
	}
	r.wg.Wait()

	if err := r.runErr(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	led, tl, err := e.Close(true, opts.VerifyEvery)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Strategy:          plan.Strategy,
		N:                 n,
		Grid:              plan.Grid,
		K:                 plan.K,
		Workers:           p,
		Chunks:            len(plan.Chunks),
		Predicted:         plan.Predicted,
		DataVolume:        led.DataVolume,
		WorkCells:         float64(n * n),
		Makespan:          tl.Makespan,
		PerWorkerData:     led.PerWorkerData,
		PerWorkerCells:    led.PerWorkerCells,
		PerWorkerCommTime: tl.CommTimes(),
		LinkUtilization:   make([]float64, p),
		Chaos:             chaosOn,
		PlanVolume:        led.PlanVolume,
		ReplannedVolume:   led.PlanVolume + led.ReplanExtra,
		Out:               e.Out(),
		Trace:             tl,
	}
	if chaosOn {
		rep.RetriedChunks = led.Retried
		rep.SpeculativeWins = led.SpecWins
		rep.DegradedWorkers = led.Degraded
		rep.ReclaimedCells = float64(led.ReclaimedCells)
		rep.CommittedVolume = led.CommittedVolume
		rep.WastedData = led.WastedData
		rep.WastedWorkCells = led.WastedWork
		rep.LostWorkCells = led.LostWork
	}
	if st, ok := topo.(Star); ok {
		// Preserve the legacy aggregate-capacity semantics: only a star
		// has a single master port; the per-edge invariant covers the rest.
		rep.LinkCapacity = math.Max(st.Aggregate, 0)
	}
	if t := net.Topology(); t != nil {
		rep.Topology = t.Name()
		rep.Edges = net.EdgeReports(tl.Makespan)
		rep.RelayVolume = tl.RelayVolume()
		rep.SpanRoutes = net.SpanRoutes()
	}
	overlap := 0.0
	for w, ct := range rep.PerWorkerCommTime {
		rep.CommTime += ct
		if tl.Makespan > 0 {
			rep.LinkUtilization[w] = ct / tl.Makespan
		}
	}
	for _, ov := range tl.OverlapTimes() {
		overlap += ov
	}
	if rep.CommTime > 0 {
		rep.OverlapFraction = overlap / rep.CommTime
	}
	return rep, nil
}

// fetchReq asks the worker's fetcher goroutine to ship one chunk into
// buffer slot `slot`.
type fetchReq struct {
	c    Chunk
	slot int
}

// work is the pool's one worker loop: claim a chunk, ship it, compute
// and commit it through the executor's serve step, repeat. Its buffers
// are sized once from the plan's largest chunk, so the per-chunk loop
// never allocates on the fault-free path. With prefetch (fault-free
// only), one persistent fetcher goroutine per worker ships the next
// chunk while the current one computes. Cancellation is honored at chunk
// boundaries.
func (r *runner) work(w int) {
	e, opts := r.e, r.opts
	wk := NewWorker(w, opts.Speeds[w]*r.rate, opts.Burst)
	scratch := 0
	if e.cq != nil {
		scratch = e.maxCells
	}
	wk.reserve(e.maxRowSpan, e.maxColSpan, scratch)

	// The fetcher's request/result channels live for the whole run — a
	// per-chunk goroutine plus result channel would be two heap
	// allocations per chunk. At most one request is ever in flight (the
	// worker sends only after receiving the previous result), so the
	// single-buffered result channel can never block the fetcher against
	// a departed worker.
	var reqCh chan fetchReq
	var resCh chan staged
	if opts.Prefetch {
		reqCh = make(chan fetchReq)
		resCh = make(chan staged, 1)
		defer close(reqCh) // stops the fetcher when the worker leaves
		go func() {
			defer close(resCh)
			defer func() {
				if rec := recover(); rec != nil {
					r.fail(fmt.Errorf("%w: worker %d prefetch panicked: %v", ErrWorkerFailed, w, rec))
				}
			}()
			for req := range reqCh {
				s, st := e.ship(r.ctx, wk, req.c, req.slot)
				if st.halted {
					return
				}
				resCh <- s
			}
		}()
	}

	<-r.turn[w]
	cur := 0
	s, ok := r.claim(wk, cur)
	for ok {
		// Claim and start shipping the next chunk before computing the
		// current one, so the transfer hides under the compute span.
		var more bool
		if opts.Prefetch {
			var next Chunk
			if next, more = e.Next(w, 0); more {
				reqCh <- fetchReq{c: next, slot: 1 - cur}
			}
		}
		if r.settle(e.compute(r.ctx, wk, s)) {
			return
		}
		if !opts.Prefetch {
			s, ok = r.claim(wk, cur)
			continue
		}
		if !more {
			return
		}
		if s, ok = <-resCh; !ok {
			return // the fetcher stopped; the run is cancelled or failed
		}
		cur = 1 - cur
	}
}

// claim leases worker w its next chunk and ships it into buffer slot
// `slot`; false means the worker is done with the run. Under faults an
// empty queue is not the end — another holder may crash and its work be
// reclaimed — so the worker polls until every cell is committed, and its
// crash instant is honored before each lease.
func (r *runner) claim(wk *Worker, slot int) (staged, bool) {
	e, w := r.e, wk.id
	for r.ctx.Err() == nil {
		now := e.clock()
		if e.crashed(w, now) {
			r.settle(e.kill(w, 0, nil))
			return staged{}, false
		}
		c, st := e.next(w, now)
		r.pass(w)
		switch st {
		case queueDone:
			return staged{}, false
		case queueWait:
			if !sleepCtx(r.ctx, chaosPoll) {
				return staged{}, false
			}
			continue
		}
		if hook := r.opts.testHookChunkStart; hook != nil {
			hook(w, c)
		}
		s, step := e.ship(r.ctx, wk, c, slot)
		if r.settle(step) {
			return staged{}, false
		}
		return s, true
	}
	return staged{}, false
}
