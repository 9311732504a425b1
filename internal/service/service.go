package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nlfl/internal/capacity"
	"nlfl/internal/platform"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/stats"
)

// Typed service failures.
var (
	// ErrAdmissionRejected marks a job shed at the door: the admission
	// queue is full, the tenant is over quota, or the fleet is draining.
	// Every rejection is an *AdmissionError carrying the machine-readable
	// reason; errors.Is(err, ErrAdmissionRejected) still matches.
	ErrAdmissionRejected = errors.New("service: admission rejected")
	// ErrFleetClosed marks a job terminated by fleet shutdown rather than
	// by its own failure.
	ErrFleetClosed = errors.New("service: fleet closed")
	// ErrJobFailed marks a job lost to its own faults — a chaos scenario
	// that exhausted the retry budget or killed every worker in the
	// job's slice. Other jobs are unaffected.
	ErrJobFailed = errors.New("service: job failed")
)

// RejectReason is the machine-readable cause of an admission rejection,
// carried by AdmissionError so API layers can report *why* a job was
// shed (quota vs fleet-full vs the capacity model's verdict) instead of
// a bare 429.
type RejectReason string

const (
	// RejectFleetClosed: the fleet has been Closed.
	RejectFleetClosed RejectReason = "fleet-closed"
	// RejectDraining: the fleet is draining; no new admissions.
	RejectDraining RejectReason = "draining"
	// RejectQueueFull: the fleet-wide unfinished-job queue is at MaxQueue.
	RejectQueueFull RejectReason = "queue-full"
	// RejectTenantQuota: this tenant is at its unfinished-job quota.
	RejectTenantQuota RejectReason = "tenant-quota"
	// RejectNoHealthyWorker: every fleet worker is quarantined.
	RejectNoHealthyWorker RejectReason = "no-healthy-worker"
	// RejectAmdahlCap: the capacity model's knee-sized slice cannot meet
	// the job's deadline — no larger slice would either (adding workers
	// past the knee buys under AutoscaleTheta marginal speedup), so the
	// job is shed at the door instead of admitted to miss its deadline.
	RejectAmdahlCap RejectReason = "amdahl-cap"
)

// AdmissionError is the typed rejection returned by Submit: Reason is
// the machine-readable cause, Detail the human-readable specifics.
// Unwrap yields ErrAdmissionRejected, so existing errors.Is checks keep
// working; use errors.As to recover the reason.
type AdmissionError struct {
	Reason RejectReason
	Detail string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%v: %s: %s", ErrAdmissionRejected, e.Reason, e.Detail)
}

func (e *AdmissionError) Unwrap() error { return ErrAdmissionRejected }

// Config sizes the fleet.
type Config struct {
	// Speeds are the fleet workers' relative speeds (all positive).
	// Required; the pool size is len(Speeds).
	Speeds []float64
	// WorkPerSecond is the cell-update rate of a speed-1 worker (the
	// token-bucket refill scale); 0 selects 2e6.
	WorkPerSecond float64
	// Burst is the token-bucket capacity in cells; 0 selects 5 ms of
	// credit at the worker's rate.
	Burst float64
	// Link models the master's outgoing bandwidth, shared one-port style
	// by every job's transfers; the zero value ships at memcpy speed.
	// Link is the star shorthand for Topology and cannot be combined
	// with it.
	Link nrt.Link
	// Topology selects the fleet's network shape (star, chain,
	// two-source — see nrt.Topology), shared by every job's transfers.
	// Mutually exclusive with Link; nil with a zero Link ships at memcpy
	// speed.
	Topology nrt.Topology
	// Policy selects the scheduling discipline; "" means PolicyFIFO.
	Policy Policy
	// AgingCellsPerSec is the SRPT anti-starvation rate: a waiting job's
	// effective remaining work shrinks by this many cells per waiting
	// second, so large jobs cannot starve behind a stream of small ones.
	// 0 selects 2% of fleet capacity per second.
	AgingCellsPerSec float64
	// MaxQueue bounds the unfinished jobs fleet-wide; admission beyond it
	// is shed with ErrAdmissionRejected. 0 selects 64.
	MaxQueue int
	// TenantQuota bounds the unfinished jobs per tenant; 0 selects
	// max(1, MaxQueue/4), so a single tenant's flood cannot occupy the
	// whole admission queue.
	TenantQuota int
	// MinCellsPerWorker is the admission slice rule: a job of N² cells is
	// admitted with at most N²/MinCellsPerWorker workers (the fastest
	// healthy ones), because a thinner split ships more input data than
	// the extra workers can pay back. 0 selects 256.
	MinCellsPerWorker int
	// AutoscaleTheta, when positive, turns on capacity-model slice
	// sizing: each job's slice is additionally capped at the knee of the
	// predicted speedup curve for its size over the healthy fleet (the
	// worker count past which marginal speedup falls below this
	// threshold), and a job whose deadline the knee-sized slice cannot
	// meet is rejected with RejectAmdahlCap rather than admitted to
	// fail. 0 disables the model and keeps the static
	// MinCellsPerWorker-only rule.
	AutoscaleTheta float64
	// QuarantineAfter is the strike budget: a worker that dies inside
	// QuarantineAfter jobs is quarantined. 0 selects 2.
	QuarantineAfter int
	// ProbationJobs is the quarantine length, measured in fleet-wide
	// finished jobs; after it the worker is readmitted with a clean
	// record. 0 selects 8.
	ProbationJobs int
	// VerifyEvery, when positive, spot-checks every VerifyEvery-th output
	// cell of each completed job and fails the job on mismatch.
	VerifyEvery int
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.WorkPerSecond <= 0 {
		d.WorkPerSecond = 2e6
	}
	if d.Policy == "" {
		d.Policy = PolicyFIFO
	}
	if d.MaxQueue <= 0 {
		d.MaxQueue = 64
	}
	if d.TenantQuota <= 0 {
		d.TenantQuota = max(1, d.MaxQueue/4)
	}
	if d.MinCellsPerWorker <= 0 {
		d.MinCellsPerWorker = 256
	}
	if d.QuarantineAfter <= 0 {
		d.QuarantineAfter = 2
	}
	if d.ProbationJobs <= 0 {
		d.ProbationJobs = 8
	}
	if d.AgingCellsPerSec <= 0 {
		cap := 0.0
		for _, s := range d.Speeds {
			cap += s * d.WorkPerSecond
		}
		d.AgingCellsPerSec = 0.02 * cap
	}
	return d
}

// Fleet is the long-lived multi-tenant service: it owns the worker
// goroutines, their token buckets and the shared master link once, and
// multiplexes admitted jobs over them chunk by chunk.
type Fleet struct {
	cfg    Config
	speeds []float64
	rate   float64
	start  time.Time
	net    *nrt.Network
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wake   []chan struct{}

	mu            sync.Mutex
	seq           int64
	active        []*job // unfinished admitted jobs, admission order
	draining      bool
	closed        bool
	health        []workerHealth
	accounts      map[string]*TenantAccount
	finishedJobs  int
	submitted     int
	rejected      int
	completed     int
	failed        int
	cancelledJobs int

	closeOnce sync.Once
}

// New starts the fleet: len(cfg.Speeds) persistent workers, each with
// its own token bucket, all sharing one master link. Callers must Close
// (or Drain then Close) the fleet.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Speeds) == 0 {
		return nil, fmt.Errorf("service: need at least one worker speed")
	}
	for i, s := range cfg.Speeds {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("service: worker %d has invalid speed %v", i, s)
		}
	}
	if lp := len(cfg.Link.PerWorker); lp != 0 && lp != len(cfg.Speeds) {
		return nil, fmt.Errorf("service: %d per-worker link rates for %d workers", lp, len(cfg.Speeds))
	}
	if cfg.Topology != nil && cfg.Link.Enabled() {
		return nil, fmt.Errorf("service: Config.Topology and Config.Link are mutually exclusive (Link is the star shorthand)")
	}
	d := cfg.withDefaults()
	if _, err := d.Policy.order(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fleet{
		cfg:      d,
		speeds:   append([]float64(nil), d.Speeds...),
		rate:     d.WorkPerSecond,
		start:    time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		health:   make([]workerHealth, len(d.Speeds)),
		accounts: map[string]*TenantAccount{},
		wake:     make([]chan struct{}, len(d.Speeds)),
	}
	topo := d.Topology
	if topo == nil {
		topo = nrt.StarFromLink(d.Link, len(d.Speeds))
	}
	net, err := nrt.NewNetwork(topo, len(d.Speeds), f.now)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("service: %w", err)
	}
	f.net = net
	for w := range f.speeds {
		f.wake[w] = make(chan struct{}, 1)
		f.wg.Add(1)
		go f.worker(w)
	}
	return f, nil
}

// now is the fleet clock: seconds since New on the monotonic clock.
// Every span, latency and chaos window uses this base.
func (f *Fleet) now() float64 { return time.Since(f.start).Seconds() }

// Workers returns the fleet pool size.
func (f *Fleet) Workers() int { return len(f.speeds) }

// wakeAll nudges every idle worker (non-blocking).
func (f *Fleet) wakeAll() {
	for _, ch := range f.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Submit admits a job, or sheds it with ErrAdmissionRejected. Admission
// never blocks: the bounded queue either has room or the job is
// rejected immediately, so overload turns into fast failure at the door
// rather than unbounded latency inside.
func (f *Fleet) Submit(spec JobSpec) (*JobHandle, error) {
	spec = spec.withDefaults()
	if err := spec.validate(len(f.speeds)); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.submitted++
	led := f.ledgerLocked(spec.Tenant)
	led.Submitted++
	reject := func(reason RejectReason, detail string) (*JobHandle, error) {
		f.rejected++
		led.Rejected++
		return nil, &AdmissionError{Reason: reason, Detail: detail}
	}
	if f.closed {
		return reject(RejectFleetClosed, "fleet closed")
	}
	if f.draining {
		return reject(RejectDraining, "fleet draining")
	}
	if len(f.active) >= f.cfg.MaxQueue {
		return reject(RejectQueueFull, fmt.Sprintf("queue full (%d unfinished jobs)", len(f.active)))
	}
	tenantActive := 0
	for _, j := range f.active {
		if j.tenant == spec.Tenant {
			tenantActive++
		}
	}
	if tenantActive >= f.cfg.TenantQuota {
		return reject(RejectTenantQuota, fmt.Sprintf("tenant %q over quota (%d unfinished jobs)", spec.Tenant, tenantActive))
	}
	slice, pred := f.sliceForLocked(spec)
	if len(slice) == 0 {
		return reject(RejectNoHealthyWorker, "no healthy worker available")
	}
	// The capacity model's no-free-lunch verdict: if the knee-capped slice
	// cannot meet the deadline, no admissible slice can (workers past the
	// knee add under AutoscaleTheta speedup), so shed the job at the door.
	if pred != nil && spec.Deadline > 0 && pred.Makespan > spec.Deadline.Seconds() {
		return reject(RejectAmdahlCap, fmt.Sprintf(
			"predicted makespan %.3fs over %d workers (capacity-model knee) exceeds the %.3fs deadline",
			pred.Makespan, pred.Workers, spec.Deadline.Seconds()))
	}
	j, err := f.buildJobLocked(spec, slice)
	if err != nil {
		f.rejected++
		led.Rejected++
		return nil, err
	}
	if pred != nil {
		j.autoscaled = true
		j.predictedMakespan = pred.Makespan
	}
	f.active = append(f.active, j)
	led.Admitted++
	f.wakeAll()
	return &JobHandle{f: f, j: j}, nil
}

// sliceForLocked picks the job's fleet slice: the fastest healthy
// workers, capped by the Amdahl-style admission rule (at most
// N²/MinCellsPerWorker workers — beyond that the extra input shipping
// outweighs the extra compute), by the spec's own MaxWorkers, and —
// when AutoscaleTheta is set — by the capacity model's knee for this
// job size over the healthy fleet. With autoscaling on, the returned
// prediction prices the chosen slice (nil otherwise).
func (f *Fleet) sliceForLocked(spec JobSpec) ([]int, *capacity.Prediction) {
	ids := make([]int, 0, len(f.speeds))
	for w := range f.speeds {
		if !f.health[w].quarantined {
			ids = append(ids, w)
		}
	}
	sort.SliceStable(ids, func(a, b int) bool { return f.speeds[ids[a]] > f.speeds[ids[b]] })
	limit := len(ids)
	if byWork := (spec.N * spec.N) / f.cfg.MinCellsPerWorker; byWork < limit {
		limit = byWork
	}
	if spec.MaxWorkers > 0 && spec.MaxWorkers < limit {
		limit = spec.MaxWorkers
	}
	var rec *capacity.Recommendation
	if f.cfg.AutoscaleTheta > 0 && len(ids) > 0 {
		speeds := make([]float64, len(ids))
		for i, w := range ids {
			speeds[i] = f.speeds[w]
		}
		m := capacity.Model{
			Alpha:         2, // the fleet runs N×N outer products
			N:             spec.N,
			Speeds:        speeds,
			WorkPerSecond: f.rate,
			Bandwidth:     f.net.Capacity(),
		}
		if r, err := m.Recommend(f.cfg.AutoscaleTheta); err == nil {
			rec = &r
			if r.Knee < limit {
				limit = r.Knee
			}
		}
	}
	if limit < 1 {
		limit = min(1, len(ids))
	}
	ids = ids[:limit]
	sort.Ints(ids)
	var pred *capacity.Prediction
	if rec != nil && limit >= 1 && limit <= len(rec.Curve) {
		p := rec.Curve[limit-1]
		pred = &p
	}
	return ids, pred
}

// buildJobLocked plans the job over its slice and allocates its state.
func (f *Fleet) buildJobLocked(spec JobSpec, slice []int) (*job, error) {
	sliceSpeeds := make([]float64, len(slice))
	for i, w := range slice {
		sliceSpeeds[i] = f.speeds[w]
	}
	pl, err := platform.FromSpeeds(sliceSpeeds)
	if err != nil {
		return nil, fmt.Errorf("service: job platform: %w", err)
	}
	var plan *nrt.StrategyPlan
	switch spec.Strategy {
	case "hom":
		plan, err = nrt.PlanHom(pl, spec.N)
	case "hom/k":
		plan, err = nrt.PlanHomK(pl, spec.N, 0.01, 0)
	case "het":
		plan, err = nrt.PlanHet(pl, spec.N)
	case "wf":
		// Caller-weighted PERI-SUM: Weights[i] loads slice worker i
		// (ascending fleet id). The slice is health- and admission-capped
		// at submit time, so the caller must size Weights against the
		// SliceFor preview — a mismatch is a spec error, not a reshuffle.
		if len(spec.Weights) != len(slice) {
			return nil, fmt.Errorf("service: %d wf weights for an admitted slice of %d workers (preview with SliceFor)",
				len(spec.Weights), len(slice))
		}
		plan, err = nrt.PlanWeighted("wf", spec.Weights, spec.N)
	default:
		return nil, fmt.Errorf("service: unknown strategy %q (want hom, hom/k, het or wf)", spec.Strategy)
	}
	if err != nil {
		return nil, fmt.Errorf("service: plan %s n=%d over %d workers: %w", spec.Strategy, spec.N, len(slice), err)
	}
	a, b := spec.A, spec.B
	if a == nil || b == nil {
		r := stats.NewRNG(spec.Seed)
		a = stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, spec.N)
		b = stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, spec.N)
	}
	submitAt := f.now()
	ex, err := nrt.NewExecutor(plan, a, b, nrt.ExecConfig{
		Speeds: f.speeds,
		Slice:  slice,
		Clock:  f.now,
		Net:    f.net,
		Chaos:  spec.Chaos,
	})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	f.seq++
	j := &job{
		id:        f.seq,
		tenant:    spec.Tenant,
		n:         spec.N,
		strategy:  spec.Strategy,
		slice:     slice,
		ex:        ex,
		chaos:     spec.Chaos.Enabled(),
		predicted: plan.Predicted,
		done:      make(chan struct{}),
		submitAt:  submitAt,
		startAt:   -1,
	}
	if spec.Deadline > 0 {
		j.ctx, j.cancel = context.WithTimeout(f.ctx, spec.Deadline)
	} else {
		j.ctx, j.cancel = context.WithCancel(f.ctx)
	}
	return j, nil
}

// Drain stops admission and waits for the in-flight jobs to finish. If
// ctx expires first, the stragglers are failed cleanly (ErrFleetClosed)
// so every waiter is answered, and ctx's error is returned.
func (f *Fleet) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	pending := append([]*job(nil), f.active...)
	f.mu.Unlock()
	for _, j := range pending {
		select {
		case <-j.done:
		case <-ctx.Done():
			f.mu.Lock()
			for _, k := range append([]*job(nil), f.active...) {
				f.finalizeLocked(k, fmt.Errorf("%w: drain deadline passed", ErrFleetClosed))
			}
			f.mu.Unlock()
			return ctx.Err()
		}
	}
	return nil
}

// Close stops the fleet: admission is closed, workers exit, and every
// unfinished job is failed with ErrFleetClosed so no waiter hangs.
// Idempotent; safe after Drain.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		f.draining = true
		// Fail the in-flight jobs first so waiters are answered promptly;
		// chunks still computing commit to nowhere afterwards.
		for _, j := range append([]*job(nil), f.active...) {
			f.finalizeLocked(j, fmt.Errorf("%w: shutdown with job in flight", ErrFleetClosed))
		}
		f.mu.Unlock()
		f.cancel()
		f.wg.Wait()
	})
}

// ledgerLocked returns (creating if needed) the tenant's ledger.
func (f *Fleet) ledgerLocked(tenant string) *TenantAccount {
	led := f.accounts[tenant]
	if led == nil {
		led = &TenantAccount{Tenant: tenant}
		f.accounts[tenant] = led
	}
	return led
}

// QueueDepth reports the number of unfinished admitted jobs — the
// backpressure signal API layers turn into Retry-After hints.
func (f *Fleet) QueueDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.active)
}

// SliceFor previews the fleet slice a job with this spec would be
// admitted with right now (ascending fleet ids) — the sizing handshake
// for the "wf" strategy, whose Weights must match the slice one-to-one.
// The preview races with health changes and other admissions only in
// the sense that the slice may differ by the time Submit runs; Submit
// then rejects the stale weights instead of misassigning them.
func (f *Fleet) SliceFor(spec JobSpec) []int {
	spec = spec.withDefaults()
	f.mu.Lock()
	defer f.mu.Unlock()
	slice, _ := f.sliceForLocked(spec)
	return slice
}

// LinkCapacity reports the shared master port's aggregate bandwidth
// (0 when unconstrained or when the fleet's topology is not a star) —
// threaded into each job's trace expectations.
func (f *Fleet) LinkCapacity() float64 { return f.net.Capacity() }

// Topology reports the fleet's modeled network family ("star", "chain",
// "two-source"; "" when transfers run at memcpy speed).
func (f *Fleet) Topology() string {
	if t := f.net.Topology(); t != nil {
		return t.Name()
	}
	return ""
}

// edgeRows returns capacity-only per-edge rows for job reports: the
// fleet's volume/busy counters span every tenant's traffic, so a single
// job's report carries just the shape the per-edge capacity sweep needs.
func (f *Fleet) edgeRows() []nrt.EdgeReport {
	t := f.net.Topology()
	if t == nil {
		return nil
	}
	edges := t.Edges()
	rows := make([]nrt.EdgeReport, len(edges))
	for i, e := range edges {
		rows[i] = nrt.EdgeReport{Name: e.Name, Capacity: math.Max(e.Capacity, 0)}
	}
	return rows
}
