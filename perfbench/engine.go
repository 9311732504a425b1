package main

import (
	"fmt"
	"time"

	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	nrt "nlfl/internal/runtime"
	"nlfl/internal/trace"
)

const (
	// engineN is engine-large's problem side: an 8 MiB output per job.
	// At 2048 (32 MiB) the Go runtime settles, per process, into one of
	// two memory regimes whose throughputs differ by about a fifth, so
	// ten runs spread wider than any bound the gate allows.
	engineN = 1024
	// engineLimitMs is engine-large's goodput latency limit, about three
	// times a job's time on a 2-CPU box.
	engineLimitMs = 30
	// engineSlices cuts the window for the median latency and the rates.
	engineSlices = 6
	// engineTail is latency_ms.tail's percentile. Job latencies have a
	// main mode and a slower shoulder; p90 sits on the edge between the
	// two and jumps with the shoulder's share, p95 lies inside it.
	engineTail = 95
)

// engineStrategies rotate job by job.
var engineStrategies = []string{"het", "hom", "hom/k"}

// engineJob is one plan-and-run job of engine-large.
type engineJob struct {
	// done is when the job's result was in hand, in seconds into the
	// window.
	done      float64
	plan, run time.Duration
	// makespan is the report's worker makespan; comm and compute are the
	// trace's span sums (traced runs only).
	makespan, comm, compute float64
	chunks                  int
	err                     error
}

// engine is engine-large's state: one platform and a pool of inputs.
type engine struct {
	cfg    runConfig
	pl     *platform.Platform
	inputs []inputPair
	// tamper is cfg.tamper once set-up is over.
	tamper func(*check)
}

// job plans and runs job k, then gates its result.
func (e *engine) job(k int) engineJob {
	strategy := engineStrategies[k%len(engineStrategies)]
	in := e.inputs[k%len(e.inputs)]
	t0 := time.Now()
	plan, err := planFor(strategy, e.pl, engineN)
	t1 := time.Now()
	if err != nil {
		return engineJob{err: fmt.Errorf("plan %s: %w", strategy, err)}
	}
	rep, err := nrt.Run(plan, in.a, in.b, nrt.Options{
		Speeds:        workerSpeeds,
		WorkPerSecond: unthrottled,
		VerifyEvery:   verifyStride,
	})
	t2 := time.Now()
	j := engineJob{plan: t1.Sub(t0), run: t2.Sub(t1)}
	if err != nil {
		j.err = fmt.Errorf("run %s: %w", strategy, err)
		return j
	}
	c := check{
		a: in.a, b: in.b, out: rep.Out, tl: rep.Trace, expect: rep.Expect(volumeTol),
		shipped: rep.DataVolume, planVolume: rep.PlanVolume, probe: uint64(k),
	}
	if e.tamper != nil {
		e.tamper(&c)
	}
	j.err = c.verify()
	if e.cfg.traced {
		j.makespan, j.chunks = rep.Makespan, rep.Chunks
		j.comm, j.compute = spanSeconds(rep.Trace)
	}
	return j
}

// runEngine is engine-large: a closed loop of one plan-and-run job at a
// time on 8 unthrottled workers of speeds 1…8.
func runEngine(cfg runConfig) (outcome, error) {
	e := &engine{cfg: cfg}
	var setup []float64
	for s := 0; s < cfg.setups; s++ {
		t := time.Now()
		pl, err := platform.FromSpeeds(workerSpeeds)
		if err != nil {
			return outcome{}, err
		}
		e.pl = pl
		e.inputs = makeInputs(cfg.seed, engineN, 4)
		matmul.AutotuneTile()
		for k := range engineStrategies {
			if j := e.job(k); j.err != nil {
				return outcome{}, fmt.Errorf("engine-large warm-up: %w", j.err)
			}
		}
		setup = append(setup, time.Since(t).Seconds())
	}

	e.tamper = cfg.tamper
	var jobs []engineJob
	var m0 memSample
	if cfg.traced {
		m0 = readMem()
	}
	start := time.Now()
	rss := sampleRSS(start)
	for k := 0; time.Since(start) < cfg.window; k++ {
		j := e.job(k)
		j.done = time.Since(start).Seconds()
		jobs = append(jobs, j)
	}
	elapsed := time.Since(start).Seconds()

	var o outcome
	w := window{seconds: cfg.window.Seconds(), slices: engineSlices, tailTop: engineTail, rss: rss.finish()}
	var plans, runs, outside []float64
	var comm, compute float64
	chunks := 0
	for _, j := range jobs {
		o.attempted++
		if j.err != nil {
			o.failed++
			o.notes = append(o.notes, "failed: "+j.err.Error())
			continue
		}
		lat := j.plan + j.run
		w.jobs = append(w.jobs, sample{at: j.done - lat.Seconds(), done: j.done, ms: ms(lat), cells: engineN * engineN, inLatency: true})
		plans = append(plans, us(j.plan))
		runs = append(runs, ms(j.run))
		outside = append(outside, ms(j.run)-j.makespan*1e3)
		comm += j.comm
		compute += j.compute
		chunks += j.chunks
	}
	var notes []string
	w.attempted, w.verified = o.attempted, o.attempted-o.failed
	o.e2e, notes = endToEnd(setup, w, engineLimitMs)
	o.notes = append(o.notes, notes...)
	if !cfg.traced {
		return o, nil
	}
	m1 := readMem()
	per := float64(max(len(w.jobs), 1))
	runP50 := summarize(runs).P50
	o.layers = []metric{
		{"runtime.plan_us.p50", "us", summarize(plans).P50},
		{"runtime.run_ms.p50", "ms", runP50},
		{"runtime.outside_workers_ms.p50", "ms", summarize(outside).P50},
		{"runtime.comm_s_per_job", "s", comm / per},
		{"runtime.compute_s_per_job", "s", compute / per},
		{"runtime.chunks_per_s", "1/s", float64(chunks) / elapsed},
	}
	o.layers = append(o.layers, memLayer(m0, m1, len(jobs))...)
	kernel := kernelProbe(cfg.seed)
	o.layers = append(o.layers,
		metric{"matmul.outer_cells_per_s", "cells/s", engineN * engineN / kernel},
		metric{"runtime.kernel_floor_ratio", "ratio", runP50 / (kernel * 1e3)})
	return o, nil
}

// spanSeconds sums a timeline's Comm and Compute span durations.
func spanSeconds(tl *trace.Timeline) (comm, compute float64) {
	for _, row := range tl.Spans {
		for _, s := range row {
			switch s.Kind {
			case trace.Comm:
				comm += s.Duration()
			case trace.Compute:
				compute += s.Duration()
			}
		}
	}
	return comm, compute
}

// kernelReps is how many OuterInto fills the kernel probe times.
const kernelReps = 9

// kernelProbe times matmul.OuterInto over the whole engineN² domain on
// one goroutine into a reused output: the serial floor a run of the
// executor sits above. It returns the median seconds of kernelReps fills.
func kernelProbe(seed int64) float64 {
	in := makeInputs(seed, engineN, 1)[0]
	out := matmul.New(engineN, engineN)
	matmul.OuterInto(out, in.a, in.b, 0, engineN, 0, engineN)
	times := make([]float64, kernelReps)
	for i := range times {
		t := time.Now()
		matmul.OuterInto(out, in.a, in.b, 0, engineN, 0, engineN)
		times[i] = time.Since(t).Seconds()
	}
	return median(times)
}
