// Command perfbench is the repository's benchmark: a single-process load
// generator over the public APIs of internal/runtime (Plan*, Run) and
// internal/service (New, Submit, Wait). Workers run unthrottled, so the
// numbers are the program's own CPU time, not the token bucket's sleep.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload engine-large --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 spends half the window untraced and
// half traced, and reports the per-layer metrics, the tracing overhead
// and, on the fleets, each job's latency decomposition.
// --workload all runs every workload untraced and prints every metric.
// BENCHMARK.json gates engine-large and fleet-saturated; fleet-steady
// runs on request (see README.md for why it is not gated).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"nlfl/internal/matmul"
	"nlfl/internal/platform"
	nrt "nlfl/internal/runtime"
)

const (
	// unthrottled is the WorkPerSecond that keeps every token bucket
	// full, so no worker ever sleeps.
	unthrottled = 1e15
	// verifyStride is the program's own output spot-check stride
	// (Options.VerifyEvery / Config.VerifyEvery).
	verifyStride = 1009
	// defaultSetups is how many times a run sets its workload up; the
	// median is setup_s.
	defaultSetups = 15
)

// workerSpeeds are the 8 workers' relative speeds, for the single-job
// pool and the fleet alike.
var workerSpeeds = []float64{1, 2, 3, 4, 5, 6, 7, 8}

// runConfig is one measured window of one workload.
type runConfig struct {
	seed   int64
	window time.Duration
	setups int
	traced bool
	// tamper, when set, corrupts each job's gate input before the gate
	// runs; the self-tests use it to show a bad result is counted.
	tamper func(*check)
}

// outcome is what a window measured.
type outcome struct {
	attempted, failed int
	e2e               []metric
	layers            []metric
	notes             []string
}

var workloads = map[string]func(runConfig) (outcome, error){
	"engine-large":    runEngine,
	"fleet-steady":    runSteady,
	"fleet-saturated": runSaturated,
}

// perLayer lists every per-layer metric a traced run reports, in order.
// A layer the workload does not exercise reads 0.
var perLayer = []metric{
	{Name: "runtime.plan_us.p50", Unit: "us"},
	{Name: "runtime.run_ms.p50", Unit: "ms"},
	{Name: "runtime.outside_workers_ms.p50", Unit: "ms"},
	{Name: "runtime.comm_s_per_job", Unit: "s"},
	{Name: "runtime.compute_s_per_job", Unit: "s"},
	{Name: "runtime.chunks_per_s", Unit: "1/s"},
	{Name: "matmul.outer_cells_per_s", Unit: "cells/s"},
	{Name: "runtime.kernel_floor_ratio", Unit: "ratio"},
	{Name: "mem.alloc_mb_per_job", Unit: "MiB"},
	{Name: "mem.gc_per_job", Unit: "count"},
	{Name: "mem.gc_pause_ms.p99", Unit: "ms"},
	{Name: "service.submit_us.p50", Unit: "us"},
	{Name: "service.submit_us.tail", Unit: "us"},
	{Name: "service.plan_us.p50", Unit: "us"},
	{Name: "service.queue_ms.p50", Unit: "ms"},
	{Name: "service.queue_ms.tail", Unit: "ms"},
	{Name: "service.backlog.mean", Unit: "jobs"},
	{Name: "service.busy_frac", Unit: "ratio"},
	{Name: "service.makespan_ms.p50", Unit: "ms"},
	{Name: "service.makespan_ms.tail", Unit: "ms"},
	{Name: "service.handoff_us.p50", Unit: "us"},
	{Name: "service.handoff_us.tail", Unit: "us"},
	{Name: "http.submit_ms.p50", Unit: "ms"},
	{Name: "http.submit_ms.tail", Unit: "ms"},
	{Name: "http.status_ms.p50", Unit: "ms"},
	{Name: "http.rejected_frac", Unit: "ratio"},
	{Name: "decomp.lateness_ms.mean", Unit: "ms"},
	{Name: "decomp.submit_ms.mean", Unit: "ms"},
	{Name: "decomp.queue_ms.mean", Unit: "ms"},
	{Name: "decomp.makespan_ms.mean", Unit: "ms"},
	{Name: "decomp.handoff_ms.mean", Unit: "ms"},
	{Name: "decomp.residual_ms.mean", Unit: "ms"},
	{Name: "decomp.residual_ms.maxabs", Unit: "ms"},
}

// inputPair is one job's input vectors.
type inputPair struct{ a, b []float64 }

// makeInputs draws count pairs of length-n vectors, uniform in [-1, 1),
// from the seed; the same seed and n give the same vectors.
func makeInputs(seed int64, n, count int) []inputPair {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	pairs := make([]inputPair, count)
	for i := range pairs {
		pairs[i] = inputPair{a: make([]float64, n), b: make([]float64, n)}
		for k := 0; k < n; k++ {
			pairs[i].a[k] = 2*rng.Float64() - 1
			pairs[i].b[k] = 2*rng.Float64() - 1
		}
	}
	return pairs
}

// planFor makes the plan the service would make for the strategy.
func planFor(strategy string, pl *platform.Platform, n int) (*nrt.StrategyPlan, error) {
	switch strategy {
	case "hom":
		return nrt.PlanHom(pl, n)
	case "hom/k":
		return nrt.PlanHomK(pl, n, 0.01, 0)
	case "het":
		return nrt.PlanHet(pl, n)
	}
	return nil, fmt.Errorf("unknown strategy %q", strategy)
}

// sample is one verified job, its times in seconds into the window.
type sample struct {
	// at is when the job was due (or began, in a closed loop), negative
	// in a ramp; done is when its verified result was in hand.
	at, done float64
	ms       float64
	cells    float64
	// inLatency marks the latency class: every job except
	// fleet-saturated's batch jobs, whose latency the notes report on
	// their own.
	inLatency bool
}

// window is what one timed window of a workload produced.
type window struct {
	seconds float64 // nominal length
	slices  int     // how many equal slices the metrics are read in
	tailTop float64 // the percentile of latency_ms.tail
	// attempted and verified count every job of the run, ramp included.
	attempted, verified int
	jobs                []sample // verified jobs, ramp included
	rss                 []rssPoint
}

// endToEnd turns a window into the end-to-end metrics. The window is
// cut into equal slices; the median latency and the rates are medians
// over the slices, so one burst of host noise moves at most one slice.
// The tail is read over the whole window: a slice's tail rests on a few
// dozen jobs and follows the host from second to second, so a median of
// slice tails spreads more from run to run than the window's tail does.
// Latencies are binned by when a job was due, completions by when it
// finished.
func endToEnd(setup []float64, w window, limitMs float64) ([]metric, []string) {
	subWindows := w.slices
	width := w.seconds / float64(subWindows)
	slot := func(t float64) int { return int(math.Floor(t / width)) }
	lat := make([][]float64, subWindows)
	cells := make([]float64, subWindows)
	jobs := make([]float64, subWindows)
	good := make([]float64, subWindows)
	var rss []float64
	for _, p := range w.rss {
		if p.at >= 0 && p.at < w.seconds {
			rss = append(rss, p.mib)
		}
	}
	var all []float64
	for _, s := range w.jobs {
		if k := slot(s.at); s.inLatency && k >= 0 && k < subWindows {
			lat[k] = append(lat[k], s.ms)
			all = append(all, s.ms)
		}
		if k := slot(s.done); k >= 0 && k < subWindows {
			cells[k] += s.cells / width
			jobs[k] += 1 / width
			if s.inLatency && s.ms <= limitMs {
				good[k] += 1 / width
			}
		}
	}
	var p50s []float64
	whole := summarizeAt(all, w.tailTop)
	notes := []string{fmt.Sprintf("latency_ms over the window: %v", whole)}
	for k, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		sm := summarizeAt(xs, w.tailTop)
		p50s = append(p50s, sm.P50)
		notes = append(notes, fmt.Sprintf("slice %d: jobs/s %.1f, latency_ms %v", k, jobs[k], sm))
	}
	notes = append(notes, fmt.Sprintf("goodput limit %g ms; set-ups %.4f s; resident MiB %v", limitMs, setup, summarize(rss)))
	return []metric{
		{"setup_s", "s", median(setup)},
		{"latency_ms.p50", "ms", median(p50s)},
		{"latency_ms.tail", "ms", whole.Tail},
		{"throughput_cells_per_s", "cells/s", median(cells)},
		{"throughput_jobs_per_s", "jobs/s", median(jobs)},
		{"goodput_jobs_per_s", "jobs/s", median(good)},
		{"verified_frac", "ratio", float64(w.verified) / float64(max(w.attempted, 1))},
		{"rss_mb", "MiB", median(rss)},
	}, notes
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "engine-large, fleet-steady, fleet-saturated or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics from a traced half-window")
	nlfl := fs.String("nlfl", "", "nlfl binary for the HTTP front-door probe (traced runs)")
	commit := fs.String("commit", "unknown", "commit the binaries were built from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0|1")
	}
	window := time.Duration(*seconds * float64(time.Second))
	cfg := runConfig{seed: *seed, window: window, setups: defaultSetups}

	var attempted, failed int
	var ms []metric
	var err error
	fn, ok := workloads[*workload]
	switch {
	case *workload == "all":
		attempted, failed, ms, err = runAll(cfg)
	case !ok:
		return fmt.Errorf("unknown workload %q (want engine-large, fleet-steady, fleet-saturated or all)", *workload)
	case *traced == 1:
		attempted, failed, ms, err = runTraced(*workload, fn, cfg, *nlfl)
	default:
		var o outcome
		o, err = fn(cfg)
		printNotes(*workload, o.notes)
		attempted, failed, ms = o.attempted, o.failed, o.e2e
	}
	if err != nil {
		return err
	}
	// The stamp comes last: the tile is picked by timing during the
	// first set-up, which setup_s counts.
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s seed=%d tile=%d\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), cpuModel(), *commit, *seed, matmul.AutotuneTile())
	return emit(attempted, failed, ms)
}

// runTraced measures half the window untraced and half traced, then
// probes the HTTP front door.
func runTraced(name string, fn func(runConfig) (outcome, error), cfg runConfig, nlfl string) (attempted, failed int, layers []metric, err error) {
	cfg.window /= 2
	plain, err := fn(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	cfg.traced = true
	tr, err := fn(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	printNotes(name+" untraced", plain.notes)
	printNotes(name+" traced", tr.notes)
	measured := map[string]float64{}
	for _, m := range tr.layers {
		measured[m.Name] = m.Value
	}
	attempted, failed = plain.attempted+tr.attempted, plain.failed+tr.failed
	if nlfl != "" {
		hp, err := probeHTTP(nlfl, cfg.seed)
		if err != nil {
			return 0, 0, nil, err
		}
		for _, m := range hp.layers {
			measured[m.Name] = m.Value
		}
		attempted += hp.attempted
		failed += hp.failed
		printNotes("http", hp.notes)
	}
	layers = make([]metric, 0, len(perLayer)+len(tr.e2e))
	for _, m := range perLayer {
		m.Value = measured[m.Name]
		layers = append(layers, m)
	}
	for i, m := range tr.e2e {
		layers = append(layers, metric{"overhead." + m.Name, m.Unit, m.Value - plain.e2e[i].Value})
	}
	printMetrics(name+" traced end-to-end", tr.e2e)
	return attempted, failed, layers, nil
}

// runAll runs every workload untraced, one after another, and reports
// every metric prefixed by its workload.
func runAll(cfg runConfig) (attempted, failed int, all []metric, err error) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, err := workloads[n](cfg)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%s: %w", n, err)
		}
		printNotes(n, o.notes)
		printMetrics(n, o.e2e)
		for _, m := range o.e2e {
			all = append(all, metric{n + "/" + m.Name, m.Unit, m.Value})
		}
		attempted += o.attempted
		failed += o.failed
	}
	return attempted, failed, all, nil
}

func printNotes(name string, notes []string) {
	for _, n := range notes {
		fmt.Printf("# %s: %s\n", name, n)
	}
}

func printMetrics(name string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("# %s: %-28s %14.6g %s\n", name, m.Name, m.Value, m.Unit)
	}
}

// emit prints the metrics by name and the JSON result line.
func emit(attempted, failed int, ms []metric) error {
	r := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		fmt.Printf("%-32s %16.6g %s\n", m.Name, m.Value, m.Unit)
		r.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
