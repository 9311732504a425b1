package runtime

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nlfl/internal/matmul"
	"nlfl/internal/trace"
)

// ExecConfig wires one job's Executor into its caller: the worker pool
// it runs on, the job's slice of that pool, the clock, the network
// booker and the fault table.
type ExecConfig struct {
	// Speeds are the relative speeds of every worker id the caller owns —
	// a single run's pool or a whole fleet. Fault-scenario worker ids,
	// trace rows and network routes are indexed the same way.
	Speeds []float64
	// Slice lists the worker ids the job may use, ascending; the plan's
	// chunk Owner indices are positions in it. nil means every worker. A
	// worker outside the slice is never live for the job.
	Slice []int
	// Clock is the live clock in seconds. Spans, leases and fault
	// instants use it, so it must share its zero with Net's clock.
	Clock func() float64
	// Net books the job's transfers; nil ships at memcpy speed. A fleet
	// passes one booker shared by all of its jobs.
	Net *Network
	// Chaos arms the fault table and the recovery machinery; the zero
	// value runs the job fault-free.
	Chaos Chaos
}

// Ledger is one job's execution ledger. Every term is an integer-valued
// element or cell count, so its identities hold float-exactly:
// DataVolume = CommittedVolume + WastedData, and on a resilient job
// CommittedVolume = PlanVolume + ReplanExtra.
type Ledger struct {
	// PlanVolume is the executed plan's geometric volume Σ(wᵢ+hᵢ).
	PlanVolume float64
	// DataVolume counts every element shipped: drops, crashed workers'
	// in-flight inputs and losing speculative copies included.
	DataVolume float64
	// CommittedVolume is the data shipped for winning commits only.
	CommittedVolume float64
	// ReplanExtra is the volume survivor re-planning added on top of the
	// plan (Σ piece data − Σ lost data ≥ 0).
	ReplanExtra float64
	// WastedData is the shipping burned by drops, crashes and losing
	// copies; WastedWork the compute cells of losing copies; LostWork the
	// cells destroyed mid-chunk by crashes.
	WastedData float64
	WastedWork float64
	LostWork   float64
	// ReclaimedCells counts cells reclaimed from dead workers.
	ReclaimedCells int
	// Retried counts dropped transfer attempts, SpecWins commits won by a
	// speculative copy, Degraded workers that died for the job.
	Retried, SpecWins, Degraded int
	// PerWorkerData and PerWorkerCells split DataVolume and the committed
	// cells by worker id.
	PerWorkerData, PerWorkerCells []float64
}

// Step is the outcome of one executor step, for the caller's own
// bookkeeping: a fleet turns it into tenant service, health strikes and
// job completion, a single run into its failure latch.
type Step struct {
	// Committed is the cells the step committed (0 when the copy lost
	// its race, died or was abandoned).
	Committed float64
	// Died reports that the worker died for this job during the step —
	// reported once per worker, by whichever step realized the crash.
	Died bool
	// Err, when non-nil, fails the job: an exhausted retry budget or no
	// live worker left.
	Err error

	// halted means the chunk was abandoned: the worker is dead for the
	// job, the job failed, or ctx was cancelled.
	halted bool
}

// Worker is one worker goroutine's private execution state: its token
// bucket and its staging buffers. A single run builds one per goroutine;
// a fleet keeps one per worker across every job it serves. A Worker
// belongs to exactly one goroutine (plus, under prefetch, its fetcher,
// which only touches the other buffer slot).
type Worker struct {
	id      int
	tb      *tokenBucket
	bufs    [2]struct{ a, b []float64 }
	scratch []float64
}

// NewWorker builds worker id's state: a token bucket refilling at rate
// cells/second (a non-positive burst selects 5 ms of credit) and empty
// buffers that grow to the largest chunk served.
func NewWorker(id int, rate, burst float64) *Worker {
	return &Worker{id: id, tb: newTokenBucket(rate, burst)}
}

// reserve sizes the buffers once for chunks of at most rows×cols, so the
// per-chunk loop never allocates; scratch is only needed on the
// resilient path.
func (wk *Worker) reserve(rows, cols, scratch int) {
	for i := range wk.bufs {
		wk.bufs[i].a = make([]float64, 0, rows)
		wk.bufs[i].b = make([]float64, 0, cols)
	}
	wk.scratch = make([]float64, 0, scratch)
}

// staged is one chunk whose inputs have been shipped into worker-local
// buffers (its Comm span is recorded at shipping time).
type staged struct {
	c          Chunk
	aBuf, bBuf []float64
}

// Executor runs one job's chunks on its caller's workers. It owns the
// job's queue — the sharded work queue on the fault-free path, the
// chaosQueue lease table on the resilient one — the compiled fault
// table, the output matrix, the recovery ledger and the closing audit.
// Its one serve step ships a chunk's a̅/b̅ intervals (dropping and
// retrying under link faults), stalls through outages, computes under
// the crash budget and commits first-writer-wins.
//
// A fault-free job hands every chunk out exactly once, so workers fill
// the output directly; under faults or speculation a chunk may run twice,
// so each copy computes into the worker's scratch and only the commit
// winner copies it out.
//
// Next(w) runs on worker w's goroutine or under the caller's own lock,
// and Begin happens before the first Serve or Reap; every other call is
// safe for concurrent use. Lock order: a caller's lock, then the
// executor's recording lock, then the lease table's.
type Executor struct {
	a, b    []float64
	n       int
	speeds  []float64
	slice   []int
	inSlice []bool
	clock   func() float64
	net     *netLink
	out     *matmul.Matrix

	q           *workQueue  // fault-free path
	cq          *chaosQueue // resilient path (nil when fault-free)
	cs          *chaosState
	maxRetries  int
	backoffBase float64
	backoffMax  float64
	// epoch is the live instant fault times count from (-1 until Begin).
	epoch float64

	// Largest chunk extents in the plan; re-planned pieces are
	// sub-rectangles of lost chunks, so the bound survives reclamation.
	maxRowSpan, maxColSpan, maxCells int

	// mu guards the recording: timeline, ledger and committed set.
	// Spans and their ledger terms land in one critical section, so a
	// frozen report is always self-consistent.
	mu        sync.Mutex
	tl        *trace.Timeline
	led       Ledger
	committed []Chunk
	frozen    bool
}

// NewExecutor builds the executor for plan over the inputs a and b.
func NewExecutor(plan *StrategyPlan, a, b []float64, cfg ExecConfig) (*Executor, error) {
	p := len(cfg.Speeds)
	resilient := cfg.Chaos.Enabled()
	if resilient {
		if err := cfg.Chaos.Validate(p); err != nil {
			return nil, err
		}
	}
	slice := cfg.Slice
	chunks := plan.Chunks
	if slice == nil {
		slice = make([]int, p)
		for w := range slice {
			slice[w] = w
		}
	} else {
		// Plan owners are slice positions; the queues index worker ids.
		chunks = make([]Chunk, len(plan.Chunks))
		for i, c := range plan.Chunks {
			if c.Owner >= 0 && c.Owner < len(slice) {
				c.Owner = slice[c.Owner]
			} else {
				c.Owner = -1
			}
			chunks[i] = c
		}
	}
	e := &Executor{
		a:       a,
		b:       b,
		n:       plan.N,
		speeds:  cfg.Speeds,
		slice:   slice,
		inSlice: make([]bool, p),
		clock:   cfg.Clock,
		out:     matmul.New(plan.N, plan.N),
		epoch:   -1,
		tl:      trace.New(p),
		led: Ledger{
			PerWorkerData:  make([]float64, p),
			PerWorkerCells: make([]float64, p),
		},
	}
	if cfg.Net != nil {
		e.net = cfg.Net.nl
	}
	for _, c := range chunks {
		e.led.PlanVolume += float64(c.Data())
		e.maxRowSpan = max(e.maxRowSpan, c.RowHi-c.RowLo)
		e.maxColSpan = max(e.maxColSpan, c.ColHi-c.ColLo)
		e.maxCells = max(e.maxCells, c.Cells())
	}
	// A clean run records exactly two spans per chunk (Comm + Compute);
	// reserving that up front keeps span recording allocation-free on the
	// hot path. Retries and speculative copies grow past it the usual
	// amortized way.
	for _, w := range slice {
		e.inSlice[w] = true
		e.tl.Spans[w] = make([]trace.Span, 0, 2*len(chunks)+4)
	}
	if !resilient {
		e.q = newWorkQueue(chunks, p, p) // one home stripe per worker
		return e, nil
	}
	e.cq = newChaosQueue(chunks, p, p, cfg.Chaos.SpeculateAfter)
	for w, in := range e.inSlice {
		e.cq.dead[w] = !in
	}
	e.cs = compileChaos(cfg.Chaos, p)
	e.maxRetries = cfg.Chaos.MaxRetries
	e.backoffBase = cfg.Chaos.BackoffBase
	if e.backoffBase <= 0 {
		e.backoffBase = 1e-3
	}
	e.backoffMax = cfg.Chaos.BackoffMax
	if e.backoffMax < e.backoffBase {
		e.backoffMax = math.Max(e.backoffBase, 50e-3)
	}
	return e, nil
}

// Begin starts the job's fault clock at live instant t: scenario event
// times count from it. Call it once, before the first Serve or Reap.
func (e *Executor) Begin(t float64) { e.epoch = t }

// Out returns the output matrix.
func (e *Executor) Out() *matmul.Matrix { return e.out }

// Next leases worker w the job's next chunk at live instant now; false
// means w has nothing to do for this job right now (it is outside the
// slice or dead for the job, or no chunk is available to it).
func (e *Executor) Next(w int, now float64) (Chunk, bool) {
	c, st := e.next(w, now)
	return c, st == queueGot
}

func (e *Executor) next(w int, now float64) (Chunk, queueState) {
	if !e.inSlice[w] {
		return Chunk{}, queueDone
	}
	if e.cq != nil {
		return e.cq.next(w, now)
	}
	if c, ok := e.q.pop(w); ok {
		return c, queueGot
	}
	return Chunk{}, queueDone
}

// crashed reports whether worker w's crash instant has passed at live
// instant t.
func (e *Executor) crashed(w int, t float64) bool {
	return e.cs != nil && t-e.epoch >= e.cs.crashAt[w]
}

// Reap realizes every crash whose instant has passed at live instant now.
// A fleet calls it for workers that are idle or busy with other jobs and
// so would not notice their crash for this one; a worker serving the job
// meets its crash at its next checkpoint either way, and each death is
// reported once. Reap returns the workers that died, and the job's
// failure when a reclaimed chunk's budget is spent or no worker
// survives.
func (e *Executor) Reap(now float64) (died []int, err error) {
	if e.cs == nil || e.epoch < 0 {
		return nil, nil
	}
	for _, w := range e.slice {
		if !e.crashed(w, now) {
			continue
		}
		st := e.kill(w, 0, nil)
		if st.Died {
			died = append(died, w)
		}
		if st.Err != nil {
			return died, st.Err
		}
	}
	return died, nil
}

// Serve runs the serve step for chunk c, leased to wk by Next: ship its
// inputs, then compute and commit it. Cancelling ctx abandons the chunk
// at the next blocking point.
func (e *Executor) Serve(ctx context.Context, wk *Worker, c Chunk) Step {
	s, st := e.ship(ctx, wk, c, 0)
	if st.halted {
		return st
	}
	return e.compute(ctx, wk, s)
}

// ship copies chunk c's a̅/b̅ intervals into wk's buffer slot — the only
// elements the worker may read are the copies it just received. Under
// the link model the Comm span is the booked transfer window, else the
// measured memcpy. A dropped transfer still occupies its booked window
// before the loss is noticed (the faults.LinkDrop contract) and is
// retried under capped exponential backoff; the crash instant is honored
// before every attempt. A cancellation mid-transfer abandons the window
// without recording a span.
func (e *Executor) ship(ctx context.Context, wk *Worker, c Chunk, slot int) (staged, Step) {
	w, bb := wk.id, &wk.bufs[slot]
	data := float64(c.Data())
	retries := 0
	backoff := e.backoffBase
	for {
		t0 := e.clock()
		if e.crashed(w, t0) {
			return staged{}, e.kill(w, 0, nil)
		}
		dropped := e.cs != nil && e.cs.dropTransfer(w, t0-e.epoch)
		var t1 float64
		var relays []bookedWindow
		if e.net != nil && e.net.constrained(w) {
			slow := 1.0
			if e.cs != nil {
				slow = e.cs.linkScale(w, t0-e.epoch)
			}
			var del bookedWindow
			del, relays = e.net.book(w, data, slow)
			t0, t1 = del.start, del.end
			if !dropped {
				bb.a = append(bb.a[:0], e.a[c.RowLo:c.RowHi]...)
				bb.b = append(bb.b[:0], e.b[c.ColLo:c.ColHi]...)
			}
			if !e.net.wait(ctx, t1) {
				return staged{}, Step{halted: true}
			}
		} else {
			if !dropped {
				bb.a = append(bb.a[:0], e.a[c.RowLo:c.RowHi]...)
				bb.b = append(bb.b[:0], e.b[c.ColLo:c.ColHi]...)
			}
			t1 = e.clock()
		}
		e.recordComm(w, c, t0, t1, relays, dropped)
		if !dropped {
			return staged{c: c, aBuf: bb.a, bBuf: bb.b}, Step{}
		}
		retries++
		if retries > e.maxRetries {
			return staged{}, Step{halted: true, Err: fmt.Errorf("%w: worker %d lost chunk %d on %d consecutive transfer attempts",
				ErrTransferFailed, w, c.Task, retries)}
		}
		if !sleepCtx(ctx, time.Duration(backoff*float64(time.Second))) {
			return staged{}, Step{halted: true}
		}
		backoff = math.Min(backoff*2, e.backoffMax)
	}
}

// compute finishes a shipped chunk. Fault-free, it pays the chunk's
// area to the token bucket — stretching the span to what a speed-sᵢ
// processor needs — and fills the output directly. Under faults it first
// stalls through transient outages, scales the token price by the
// straggler factor (sampled at chunk start), bounds the token wait by the
// crash instant — realizing death mid-chunk — and computes into the
// worker's scratch; only the first-writer-wins commit copies it out.
func (e *Executor) compute(ctx context.Context, wk *Worker, s staged) Step {
	if ctx.Err() != nil {
		return Step{halted: true}
	}
	w, c := wk.id, s.c
	cells := float64(c.Cells())
	if e.cq == nil {
		t0 := e.clock()
		wk.tb.acquire(cells)
		fillChunk(e.out, s.aBuf, s.bBuf, c)
		e.recordCompute(w, c, t0, e.clock(), trace.OK, false)
		return Step{Committed: cells}
	}
	data := float64(c.Data())
	crashAt := e.cs.crashAt[w]
	for {
		rel := e.clock() - e.epoch
		if rel >= crashAt {
			return e.kill(w, data, nil)
		}
		until, paused := e.cs.pausedUntil(w, rel)
		if !paused {
			break
		}
		stall := math.Min(until, crashAt) - rel
		if !sleepCtx(ctx, time.Duration(stall*float64(time.Second))) {
			return Step{halted: true}
		}
	}
	t0 := e.clock()
	budget := time.Duration(-1)
	if !math.IsInf(crashAt, 1) {
		budget = time.Duration(math.Max(0, crashAt-(t0-e.epoch)) * float64(time.Second))
	}
	finished := wk.tb.acquireWithin(cells/e.cs.computeScale(w, t0-e.epoch), budget)
	if finished {
		if cap(wk.scratch) < c.Cells() {
			wk.scratch = make([]float64, c.Cells())
		}
		wk.scratch = wk.scratch[:c.Cells()]
		fillChunkInto(wk.scratch, s.aBuf, s.bBuf, c)
	}
	t1 := e.clock()
	if !finished || e.crashed(w, t1) {
		return e.kill(w, data, &trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: trace.Killed})
	}
	won, specWin := e.cq.commit(c.Task, w)
	if !won {
		e.recordCompute(w, c, t0, t1, trace.Wasted, false)
		return Step{}
	}
	commitChunk(e.out, wk.scratch, c)
	e.recordCompute(w, c, t0, t1, trace.OK, specWin)
	return Step{Committed: cells}
}

// recordComm logs one transfer attempt: its relay windows (recorded for
// dropped attempts too — the payload burned the intermediate hops before
// the loss was noticed at delivery), its Comm span and the shipping
// ledger.
func (e *Executor) recordComm(w int, c Chunk, t0, t1 float64, relays []bookedWindow, dropped bool) {
	data := float64(c.Data())
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return
	}
	for _, h := range relays {
		e.tl.AddRelay(trace.Relay{Edge: h.edge, Dest: w, Start: h.start, End: h.end, Data: data, Task: c.Task})
	}
	sp := trace.Span{Kind: trace.Comm, Start: t0, End: t1, Data: data, Task: c.Task}
	e.led.DataVolume += data
	e.led.PerWorkerData[w] += data
	if dropped {
		sp.Outcome = trace.Dropped
		e.led.WastedData += data
		e.led.Retried++
		e.tl.Mark(trace.Marker{Kind: trace.MarkDrop, Worker: w, Time: t1, Note: fmt.Sprintf("task %d", c.Task)})
	}
	e.tl.Add(w, sp)
}

// recordCompute logs a finished copy of chunk c: committed (trace.OK) or
// a lost first-writer-wins race (trace.Wasted).
func (e *Executor) recordCompute(w int, c Chunk, t0, t1 float64, outcome trace.Outcome, specWin bool) {
	cells := float64(c.Cells())
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return
	}
	e.tl.Add(w, trace.Span{Kind: trace.Compute, Start: t0, End: t1, Work: cells, Task: c.Task, Outcome: outcome})
	if outcome == trace.Wasted {
		e.led.WastedData += float64(c.Data())
		e.led.WastedWork += cells
		return
	}
	e.led.PerWorkerCells[w] += cells
	e.led.CommittedVolume += float64(c.Data())
	if e.cq != nil {
		e.committed = append(e.committed, c)
	}
	if specWin {
		e.led.SpecWins++
	}
}

// kill takes worker w out of the job at its crash instant: the data
// shipped for the chunk that died with it is wasted, killed records the
// compute destroyed mid-chunk, and — on the first death only — the
// timeline is marked and everything w was solely responsible for is
// reclaimed into the queue, owned rectangles re-planned onto the
// survivors. A later call for a dead worker (a fleet may realize a crash
// through Reap while the worker is still serving) only books the loss.
func (e *Executor) kill(w int, inflight float64, killed *trace.Span) Step {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return Step{halted: true}
	}
	e.led.WastedData += inflight
	if killed != nil {
		e.tl.Add(w, *killed)
		e.led.LostWork += killed.Work
	}
	if e.cq.isDead(w) {
		return Step{halted: true}
	}
	e.tl.Mark(trace.Marker{Kind: trace.MarkCrash, Worker: w, Time: e.clock(), Note: "permanent"})
	cells, extra, over := e.cq.reclaim(w, e.maxRetries, e.replan)
	e.led.Degraded++
	e.led.ReclaimedCells += cells
	e.led.ReplanExtra += extra
	st := Step{Died: true, halted: true}
	if over != nil {
		st.Err = fmt.Errorf("%w: worker %d crashed holding chunk %d with its retry budget exhausted", ErrWorkerFailed, w, over.Task)
	} else if e.cq.allDead() {
		st.Err = fmt.Errorf("%w: all %d workers crashed before the run completed", ErrWorkerFailed, len(e.slice))
	}
	return st
}

// replan maps a lost chunk onto the live slice: ownerless chunks keep
// their identity (any survivor may claim them), owned rectangles are
// re-planned by PERI-SUM over the survivor speeds. It runs under the
// lease table's lock, inside reclaim, so it may read cq.dead.
func (e *Executor) replan(c Chunk) []Chunk {
	if c.Owner < 0 {
		return []Chunk{c}
	}
	var owners []int
	var speeds []float64
	for _, v := range e.slice {
		if !e.cq.dead[v] {
			owners = append(owners, v)
			speeds = append(speeds, e.speeds[v])
		}
	}
	return replanOwnedChunk(c, owners, speeds)
}

// Close freezes the job's recording and returns its ledger and timeline;
// steps still in flight afterwards record nothing. With check, it first
// runs the closing audit — on a resilient job the committed chunks must
// tile the domain exactly, the committed volume must equal the
// survivor-re-planned closed form, and every shipped element must be
// committed or wasted — and then spot-checks every verifyEvery-th output
// cell (when positive) against a[i]·b[j]. Call it once the job's outcome
// is decided; with check, after every step has returned.
func (e *Executor) Close(check bool, verifyEvery int) (Ledger, *trace.Timeline, error) {
	e.mu.Lock()
	e.frozen = true
	led := e.led
	e.mu.Unlock()
	if !check {
		return led, e.tl, nil
	}
	if e.cq != nil {
		sort.Slice(e.committed, func(i, j int) bool { return e.committed[i].Task < e.committed[j].Task })
		if err := checkTiling(e.n, e.committed); err != nil {
			return led, e.tl, fmt.Errorf("runtime: committed chunks violate exactly-once: %w", err)
		}
		if replanned := led.PlanVolume + led.ReplanExtra; led.CommittedVolume != replanned {
			return led, e.tl, fmt.Errorf("runtime: committed volume %v ≠ survivor-re-planned closed form %v", led.CommittedVolume, replanned)
		}
		if led.DataVolume != led.CommittedVolume+led.WastedData {
			return led, e.tl, fmt.Errorf("runtime: shipping ledger leaks: measured %v ≠ committed %v + wasted %v",
				led.DataVolume, led.CommittedVolume, led.WastedData)
		}
	}
	if verifyEvery > 0 {
		n := e.n
		for idx := 0; idx < n*n; idx += verifyEvery {
			i, j := idx/n, idx%n
			if want := e.a[i] * e.b[j]; e.out.Data[idx] != want {
				return led, e.tl, fmt.Errorf("runtime: output cell (%d,%d) = %v, want %v", i, j, e.out.Data[idx], want)
			}
		}
	}
	return led, e.tl, nil
}

// fillChunk writes the chunk's rectangle of the outer product from the
// worker-local copies, tiling the column range like matmul.OuterInto.
func fillChunk(out *matmul.Matrix, aBuf, bBuf []float64, c Chunk) {
	bs := matmul.AutotuneTile()
	n := out.Cols
	for jj := 0; jj < len(bBuf); jj += bs {
		jMax := min(jj+bs, len(bBuf))
		bTile := bBuf[jj:jMax]
		for i, av := range aBuf {
			base := (c.RowLo+i)*n + c.ColLo
			row := out.Data[base+jj : base+jMax]
			for j, bv := range bTile {
				row[j] = av * bv
			}
		}
	}
}

// fillChunkInto computes the chunk's rectangle of the outer product into
// a worker-private scratch (row-major, width ColHi−ColLo), tiling like
// fillChunk.
func fillChunkInto(dst []float64, aBuf, bBuf []float64, c Chunk) {
	bs := matmul.AutotuneTile()
	wd := c.ColHi - c.ColLo
	for jj := 0; jj < wd; jj += bs {
		jMax := min(jj+bs, wd)
		bTile := bBuf[jj:jMax]
		for i, av := range aBuf {
			row := dst[i*wd+jj : i*wd+jMax]
			for j, bv := range bTile {
				row[j] = av * bv
			}
		}
	}
}

// commitChunk copies a winning scratch into the output. Exactly one copy
// of each task wins (chaosQueue.commit) and committed chunks never
// overlap (the closing audit checks the committed set), so winners write
// disjoint cells and need no lock.
func commitChunk(out *matmul.Matrix, scratch []float64, c Chunk) {
	wd := c.ColHi - c.ColLo
	for i := 0; i < c.RowHi-c.RowLo; i++ {
		base := (c.RowLo+i)*out.Cols + c.ColLo
		copy(out.Data[base:base+wd], scratch[i*wd:(i+1)*wd])
	}
}
