package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"nlfl/internal/platform"
	"nlfl/internal/service"
)

const (
	// steadyRate is fleet-steady's Poisson arrival rate in jobs/s, well
	// under the fleet's closed-loop capacity on a 2-CPU box.
	steadyRate = 600
	// steadyLimitMs is fleet-steady's goodput latency limit.
	steadyLimitMs = 10
	// satInFlight is fleet-saturated's closed-loop client count: the
	// default admission bound (Config.MaxQueue).
	satInFlight = 64
	// satLimitMs is fleet-saturated's goodput latency limit.
	satLimitMs = 250
	// satRamp is how long fleet-saturated's clients run before its
	// window opens.
	satRamp = 4 * time.Second
	// fleetSlices cuts the window for the median latency and the rates.
	fleetSlices = 16
	// fleetTail is latency_ms.tail's percentile. At the admission bound
	// a CPU stolen from the fleet stretches the latency spread while
	// throughput and the mean hold (Little's law): an in-guest CPU hog
	// raised fleet-saturated's p99 by 55% and its p90 by 15%, and moved
	// throughput by 2%. At p99 the tail measured the host.
	fleetTail = 90
	// batchN, batchTenant and batchEvery define fleet-saturated's big
	// jobs: about one job in batchEvery is n=batchN from batchTenant.
	batchN      = 1024
	batchTenant = "batch"
	batchEvery  = 20
	// tenantQuota is the service's default per-tenant bound for the
	// default MaxQueue of 64; the load generator never exceeds it.
	tenantQuota = satInFlight / 4
	// planSampleEvery is how often the traced run re-times the Plan*
	// call a job's admission made.
	planSampleEvery = 8
	// backlogEvery is the traced run's QueueDepth sampling period.
	backlogEvery = time.Millisecond
	// warmRounds is how many times a fleet set-up runs every small
	// size × strategy before the window.
	warmRounds = 4
)

var (
	smallSizes      = []int{64, 128, 256}
	fleetStrategies = []string{"hom", "hom/k", "het"}
	smallTenants    = []string{"t0", "t1", "t2", "t3"}
)

// fleetJob is one generated job: its spec inputs and its gate probe.
type fleetJob struct {
	n        int
	strategy string
	tenant   string
	in       inputPair
	probe    uint64
}

// fleetRec is one job's measurements. Bench-clock times are seconds
// since the load's origin; fleet-clock times are the JobReport's.
type fleetRec struct {
	n                      int
	due, call, ret, waited float64
	err                    error
	// Traced runs only.
	submitT, startT, doneT float64
	spanSec, sliceSec      float64
	planUS                 float64 // < 0 when not sampled
}

// fleetLoad is a running fleet with its inputs and clocks.
type fleetLoad struct {
	cfg    runConfig
	fleet  *service.Fleet
	origin time.Time
	// fleetAt is the bench clock read just before service.New: the
	// origin of the fleet clock, up to New's own start-up.
	fleetAt float64
	inputs  map[int][]inputPair
	// tamper is cfg.tamper once set-up is over.
	tamper func(*check)
}

func (fl *fleetLoad) now() float64 { return time.Since(fl.origin).Seconds() }

// startFleet sets the fleet up cfg.setups times (inputs, service.New,
// warmRounds of every size × strategy, plus a batch job when withBatch)
// and keeps the last one running. It returns each set-up's seconds.
func startFleet(cfg runConfig, withBatch bool) (*fleetLoad, []float64, error) {
	fl := &fleetLoad{cfg: cfg, origin: time.Now()}
	var setup []float64
	for s := 0; s < cfg.setups; s++ {
		t := time.Now()
		fl.inputs = map[int][]inputPair{}
		for _, n := range smallSizes {
			fl.inputs[n] = makeInputs(cfg.seed, n, 8)
		}
		if withBatch {
			fl.inputs[batchN] = makeInputs(cfg.seed, batchN, 2)
		}
		fl.fleetAt = fl.now()
		f, err := service.New(service.Config{
			Speeds:        workerSpeeds,
			WorkPerSecond: unthrottled,
			Policy:        service.PolicySRPT,
			VerifyEvery:   verifyStride,
		})
		if err != nil {
			return nil, nil, err
		}
		fl.fleet = f
		var warm []fleetJob
		for r := 0; r < warmRounds; r++ {
			for i, n := range smallSizes {
				for k, st := range fleetStrategies {
					warm = append(warm, fleetJob{n: n, strategy: st, tenant: smallTenants[(r+i+k)%len(smallTenants)], in: fl.inputs[n][r+k]})
				}
			}
		}
		if withBatch {
			warm = append(warm, fleetJob{n: batchN, strategy: "het", tenant: batchTenant, in: fl.inputs[batchN][0]})
		}
		// Submit the whole warm-up at once, within the queue and tenant
		// bounds, so set-up time is set by throughput, not by one job's
		// wake-up latency after another.
		recs := make([]fleetRec, len(warm))
		var wg sync.WaitGroup
		for i, j := range warm {
			if h := fl.submit(j, &recs[i]); h != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fl.await(h, j, &recs[i])
				}()
			}
		}
		wg.Wait()
		for i, r := range recs {
			if r.err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("fleet warm-up n=%d %s: %w", warm[i].n, warm[i].strategy, r.err)
			}
		}
		setup = append(setup, time.Since(t).Seconds())
		if s < cfg.setups-1 {
			f.Close()
		}
	}
	fl.tamper = cfg.tamper
	return fl, setup, nil
}

// smallJob draws a job of the small mix for tenant.
func (fl *fleetLoad) smallJob(rng *rand.Rand, tenant string) fleetJob {
	n := smallSizes[rng.Intn(len(smallSizes))]
	pool := fl.inputs[n]
	return fleetJob{
		n:        n,
		strategy: fleetStrategies[rng.Intn(len(fleetStrategies))],
		tenant:   tenant,
		in:       pool[rng.Intn(len(pool))],
		probe:    rng.Uint64(),
	}
}

// submit calls Fleet.Submit, timing the call.
func (fl *fleetLoad) submit(j fleetJob, rec *fleetRec) *service.JobHandle {
	rec.n = j.n
	rec.planUS = -1
	rec.call = fl.now()
	h, err := fl.fleet.Submit(service.JobSpec{Tenant: j.tenant, N: j.n, Strategy: j.strategy, A: j.in.a, B: j.in.b})
	rec.ret = fl.now()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return nil
	}
	return h
}

// await waits for the job, gates its result and, when traced, reads the
// report's clocks and re-times a sample of admission plans.
func (fl *fleetLoad) await(h *service.JobHandle, j fleetJob, rec *fleetRec) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := h.Wait(ctx)
	rec.waited = fl.now()
	if err != nil {
		rec.err = fmt.Errorf("job %d: %w", h.ID(), err)
		return
	}
	c := check{
		a: j.in.a, b: j.in.b, out: rep.Out, tl: rep.Trace, expect: rep.Expect(volumeTol),
		shipped: rep.CommittedVolume, planVolume: rep.PlanVolume, probe: j.probe,
	}
	if fl.tamper != nil {
		fl.tamper(&c)
	}
	if rec.err = c.verify(); rec.err != nil || !fl.cfg.traced {
		return
	}
	rec.submitT, rec.startT, rec.doneT = rep.SubmitTime, rep.StartTime, rep.DoneTime
	comm, compute := spanSeconds(rep.Trace)
	rec.spanSec = comm + compute
	rec.sliceSec = rep.Makespan * float64(len(rep.Workers))
	if h.ID()%planSampleEvery == 0 {
		speeds := make([]float64, len(rep.Workers))
		for i, w := range rep.Workers {
			speeds[i] = workerSpeeds[w]
		}
		if pl, err := platform.FromSpeeds(speeds); err == nil {
			t := time.Now()
			if _, err := planFor(j.strategy, pl, j.n); err == nil {
				rec.planUS = us(time.Since(t))
			}
		}
	}
}

// sampleBacklog samples QueueDepth every backlogEvery until stop closes
// and returns the mean depth.
func (fl *fleetLoad) sampleBacklog(stop <-chan struct{}) float64 {
	tk := time.NewTicker(backlogEvery)
	defer tk.Stop()
	sum, k := 0, 0
	for {
		select {
		case <-stop:
			return float64(sum) / float64(max(k, 1))
		case <-tk.C:
			sum += fl.fleet.QueueDepth()
			k++
		}
	}
}

// runSteady is fleet-steady: Poisson arrivals at steadyRate from four
// tenants, each job timed from its due time.
func runSteady(cfg runConfig) (outcome, error) {
	fl, setup, err := startFleet(cfg, false)
	if err != nil {
		return outcome{}, err
	}
	defer fl.fleet.Close()
	rng := rand.New(rand.NewSource(cfg.seed))
	var jobs []fleetJob
	var due []float64
	for t := rng.ExpFloat64() / steadyRate; t < cfg.window.Seconds(); t += rng.ExpFloat64() / steadyRate {
		due = append(due, t)
		jobs = append(jobs, fl.smallJob(rng, smallTenants[rng.Intn(len(smallTenants))]))
	}
	recs := make([]fleetRec, len(jobs))
	o := fl.measure(setup, steadyLimitMs, 0, func(start float64) []fleetRec {
		var wg sync.WaitGroup
		for i := range jobs {
			d := start + due[i]
			sleepUntil(fl, d)
			recs[i].due = d
			h := fl.submit(jobs[i], &recs[i])
			if h == nil {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fl.await(h, jobs[i], &recs[i])
			}(i)
		}
		wg.Wait()
		return recs
	})
	late := make([]float64, len(recs))
	for i, r := range recs {
		late[i] = (r.call - r.due) * 1e3
	}
	o.notes = append(o.notes, fmt.Sprintf("generator lateness ms: %v", summarize(late)))
	return o, nil
}

// sleepUntil blocks until the bench clock reads t. It sleeps in the
// kernel: time.Sleep rounds waits under a millisecond up to one when
// the process is otherwise idle, which would make a 600/s open loop run
// up to a millisecond late on every arrival.
func sleepUntil(fl *fleetLoad, t float64) {
	for {
		w := t - fl.now()
		if w <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(w * 1e9))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// runSaturated is fleet-saturated: satInFlight closed-loop clients, each
// submitting its next job when the last one is answered. About one job
// in batchEvery is a batch job; tenants are picked within quota.
func runSaturated(cfg runConfig) (outcome, error) {
	fl, setup, err := startFleet(cfg, true)
	if err != nil {
		return outcome{}, err
	}
	defer fl.fleet.Close()
	rng := rand.New(rand.NewSource(cfg.seed))
	inflight := map[string]int{}
	var mu sync.Mutex
	var recs []fleetRec
	next := func() fleetJob {
		batch := rng.Intn(batchEvery) == 0
		if batch && inflight[batchTenant] < tenantQuota {
			pool := fl.inputs[batchN]
			return fleetJob{n: batchN, strategy: fleetStrategies[rng.Intn(len(fleetStrategies))],
				tenant: batchTenant, in: pool[rng.Intn(len(pool))], probe: rng.Uint64()}
		}
		var open []string
		for _, t := range smallTenants {
			if inflight[t] < tenantQuota {
				open = append(open, t)
			}
		}
		return fl.smallJob(rng, open[rng.Intn(len(open))])
	}
	o := fl.measure(setup, satLimitMs, satRamp.Seconds(), func(start float64) []fleetRec {
		end := start + cfg.window.Seconds()
		var wg sync.WaitGroup
		for c := 0; c < satInFlight; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if fl.now() >= end {
						mu.Unlock()
						return
					}
					j := next()
					inflight[j.tenant]++
					mu.Unlock()
					var rec fleetRec
					if h := fl.submit(j, &rec); h != nil {
						fl.await(h, j, &rec)
					}
					rec.due = rec.call
					mu.Lock()
					inflight[j.tenant]--
					recs = append(recs, rec)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return recs
	})
	batches := 0
	for _, r := range recs {
		if r.n == batchN {
			batches++
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("batch jobs: %d of %d, ramp included", batches, len(recs)))
	return o, nil
}

// measure runs one timed window of a fleet load and turns its records
// into the end-to-end metrics and, when traced, the per-layer ones.
// A closed loop first runs for ramp seconds, so its backlog and batch
// share settle before the window starts; jobs due in the ramp are gated
// and counted, and their completions inside the window count in its
// rates, but their latencies and layers are left out.
func (fl *fleetLoad) measure(setup []float64, limitMs, ramp float64, drive func(start float64) []fleetRec) outcome {
	var m0 memSample
	stop := make(chan struct{})
	backlog := make(chan float64, 1)
	if fl.cfg.traced {
		m0 = readMem()
		go func() { backlog <- fl.sampleBacklog(stop) }()
	}
	start := fl.now() + ramp
	rss := sampleRSS(fl.origin.Add(time.Duration(start * float64(time.Second))))
	recs := drive(start)
	close(stop)

	var o outcome
	w := window{seconds: fl.cfg.window.Seconds(), slices: fleetSlices, tailTop: fleetTail, rss: rss.finish()}
	var batch []float64
	var timed []fleetRec
	for _, r := range recs {
		o.attempted++
		if r.err != nil {
			o.failed++
			o.notes = append(o.notes, "failed: "+r.err.Error())
			continue
		}
		lat := (r.waited - r.due) * 1e3
		w.jobs = append(w.jobs, sample{at: r.due - start, done: r.waited - start, ms: lat, cells: float64(r.n * r.n), inLatency: r.n != batchN})
		if r.due < start {
			continue
		}
		timed = append(timed, r)
		if r.n == batchN {
			batch = append(batch, lat)
		}
	}
	w.attempted, w.verified = o.attempted, o.attempted-o.failed
	var notes []string
	o.e2e, notes = endToEnd(setup, w, limitMs)
	if len(batch) > 0 {
		notes = append(notes, fmt.Sprintf("batch latency_ms (not in latency_ms.*): %v", summarize(batch)))
	}
	o.notes = append(o.notes, notes...)
	if !fl.cfg.traced {
		return o
	}
	m1 := readMem()
	o.layers = fl.layers(timed, <-backlog)
	o.layers = append(o.layers, memLayer(m0, m1, len(recs))...)
	return o
}

// layers derives the service and latency-decomposition metrics
// from a traced window's records. Each verified job's latency splits as
// lateness + submit + queue + makespan + handoff + residual; the
// residual is the part of Submit after the fleet stamped SubmitTime plus
// the error of the fleet-clock origin.
func (fl *fleetLoad) layers(recs []fleetRec, backlogMean float64) []metric {
	var submit, plan, queue, makespan, handoff []float64
	var dLate, dSubmit, dQueue, dMakespan, dHandoff, dResidual, residualMax float64
	var spanSec, sliceSec float64
	ok := 0
	for _, r := range recs {
		submit = append(submit, (r.ret-r.call)*1e6)
		lateness := r.call - r.due
		if r.err != nil {
			continue
		}
		ok++
		if r.planUS >= 0 {
			plan = append(plan, r.planUS)
		}
		q := r.startT - r.submitT
		m := r.doneT - r.startT
		hand := r.waited - (fl.fleetAt + r.doneT)
		queue = append(queue, q*1e3)
		makespan = append(makespan, m*1e3)
		handoff = append(handoff, hand*1e6)
		residual := (r.waited - r.due) - (lateness + (r.ret - r.call) + q + m + hand)
		dLate += lateness
		dSubmit += r.ret - r.call
		dQueue += q
		dMakespan += m
		dHandoff += hand
		dResidual += residual
		residualMax = max(residualMax, residual, -residual)
		spanSec += r.spanSec
		sliceSec += r.sliceSec
	}
	per := 1e3 / float64(max(ok, 1))
	sub, qu, mk, ho := summarize(submit), summarize(queue), summarize(makespan), summarize(handoff)
	busy := 0.0
	if sliceSec > 0 {
		busy = spanSec / sliceSec
	}
	return []metric{
		{"service.submit_us.p50", "us", sub.P50},
		{"service.submit_us.tail", "us", sub.Tail},
		{"service.plan_us.p50", "us", summarize(plan).P50},
		{"service.queue_ms.p50", "ms", qu.P50},
		{"service.queue_ms.tail", "ms", qu.Tail},
		{"service.backlog.mean", "jobs", backlogMean},
		{"service.busy_frac", "ratio", busy},
		{"service.makespan_ms.p50", "ms", mk.P50},
		{"service.makespan_ms.tail", "ms", mk.Tail},
		{"service.handoff_us.p50", "us", ho.P50},
		{"service.handoff_us.tail", "us", ho.Tail},
		{"decomp.lateness_ms.mean", "ms", dLate * per},
		{"decomp.submit_ms.mean", "ms", dSubmit * per},
		{"decomp.queue_ms.mean", "ms", dQueue * per},
		{"decomp.makespan_ms.mean", "ms", dMakespan * per},
		{"decomp.handoff_ms.mean", "ms", dHandoff * per},
		{"decomp.residual_ms.mean", "ms", dResidual * per},
		{"decomp.residual_ms.maxabs", "ms", residualMax * 1e3},
	}
}
