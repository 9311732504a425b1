package runtime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"nlfl/internal/faults"
	"nlfl/internal/partition"
	"nlfl/internal/stats"
)

// Chaos configures the fault-injection layer of the measured runtime: the
// same faults.Scenario timelines the DES simulators execute, realized on
// real goroutines (see DESIGN.md §10 for the kind-by-kind mapping), plus
// the survival machinery — per-chunk leases with reclamation, capped
// exponential backoff on transfer retry, speculative re-execution with
// first-writer-wins commit, and PERI-SUM re-planning of a dead worker's
// rectangles onto the survivors.
type Chaos struct {
	// Scenario is the fault timeline, in seconds from the job's start (a
	// Run's start; a fleet job's first chunk handout). Worker indices are
	// the caller's worker ids.
	Scenario faults.Scenario
	// MaxRetries is the per-chunk-lineage recovery budget: how many times
	// a chunk's transfer may be re-attempted after a link drop, and how
	// many times a chunk's lineage may be reclaimed after crashes. A
	// chunk exceeding the budget fails the run with ErrTransferFailed
	// (drops) or ErrWorkerFailed (crashes); 0 means no budget at all.
	MaxRetries int
	// BackoffBase and BackoffMax bound the capped exponential backoff
	// between transfer retries, in seconds. A zero BackoffBase selects
	// 1 ms; a BackoffMax below the base selects max(base, 50 ms).
	BackoffBase float64
	BackoffMax  float64
	// SpeculateAfter, when positive, enables speculative re-execution: a
	// chunk a single worker has held for longer than this many seconds
	// may be issued to one additional worker; the first finished copy
	// commits, the other is recorded Wasted.
	SpeculateAfter float64
}

// Enabled reports whether the options need the resilient execution
// path: some fault event, or speculation, can put a second copy of a
// chunk in flight.
func (c Chaos) Enabled() bool { return len(c.Scenario.Events) > 0 || c.SpeculateAfter > 0 }

// Validate rejects malformed chaos options for a p-worker pool.
func (c Chaos) Validate(p int) error {
	if err := c.Scenario.Validate(p); err != nil {
		return err
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("runtime: negative retry budget %d", c.MaxRetries)
	}
	for _, v := range []struct {
		name  string
		value float64
	}{{"BackoffBase", c.BackoffBase}, {"BackoffMax", c.BackoffMax}, {"SpeculateAfter", c.SpeculateAfter}} {
		if v.value < 0 || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("runtime: invalid %s %v", v.name, v.value)
		}
	}
	return nil
}

// chaosWindow is one [start,end) fault window; factor holds the
// straggler/link multiplier or the drop probability, per kind.
type chaosWindow struct {
	start, end, factor float64
}

func (cw chaosWindow) covers(t float64) bool { return t >= cw.start && t < cw.end }

// chaosState is the scenario compiled into per-worker query tables. The
// deterministic parts (crash instants, slowdown and outage windows) are
// read-only after compile; the LinkDrop coin flips share one seeded RNG
// behind a mutex, so a run's flip *sequence* is reproducible even though
// which transfer consumes which flip depends on goroutine arrival order
// (see EXPERIMENTS.md on determinism).
type chaosState struct {
	crashAt []float64       // earliest Crash instant per worker (+Inf: none)
	slow    [][]chaosWindow // Straggler: compute-speed factors
	pause   [][]chaosWindow // Transient: full outages
	lslow   [][]chaosWindow // LinkSlow: bandwidth factors
	drop    [][]chaosWindow // LinkDrop: per-transfer loss probability

	mu  sync.Mutex
	rng *stats.RNG
}

func compileChaos(c Chaos, p int) *chaosState {
	cs := &chaosState{
		crashAt: make([]float64, p),
		slow:    make([][]chaosWindow, p),
		pause:   make([][]chaosWindow, p),
		lslow:   make([][]chaosWindow, p),
		drop:    make([][]chaosWindow, p),
		rng:     stats.NewRNG(c.Scenario.Seed),
	}
	for w := range cs.crashAt {
		cs.crashAt[w] = math.Inf(1)
	}
	for _, e := range c.Scenario.Events {
		switch e.Kind {
		case faults.Crash:
			if e.Time < cs.crashAt[e.Worker] {
				cs.crashAt[e.Worker] = e.Time
			}
		case faults.Transient:
			cs.pause[e.Worker] = append(cs.pause[e.Worker], chaosWindow{e.Time, e.Until, 0})
		case faults.Straggler:
			cs.slow[e.Worker] = append(cs.slow[e.Worker], chaosWindow{e.Time, e.Until, e.Factor})
		case faults.LinkSlow:
			cs.lslow[e.Worker] = append(cs.lslow[e.Worker], chaosWindow{e.Time, e.Until, e.Factor})
		case faults.LinkDrop:
			cs.drop[e.Worker] = append(cs.drop[e.Worker], chaosWindow{e.Time, e.Until, e.DropProb})
		}
	}
	return cs
}

// computeScale returns worker w's speed multiplier at instant t (the
// product of the straggler windows covering t). Sampled once per chunk:
// a window boundary crossing mid-chunk does not re-rate the chunk.
func (cs *chaosState) computeScale(w int, t float64) float64 {
	f := 1.0
	for _, win := range cs.slow[w] {
		if win.covers(t) {
			f *= win.factor
		}
	}
	return f
}

// pausedUntil reports whether worker w is inside a transient outage at t
// and, if so, when the latest covering outage ends.
func (cs *chaosState) pausedUntil(w int, t float64) (until float64, paused bool) {
	for _, win := range cs.pause[w] {
		if win.covers(t) && win.end > until {
			until, paused = win.end, true
		}
	}
	return until, paused
}

// linkScale is the bandwidth multiplier for a transfer to worker w
// starting at instant t, passed into the booking call (sampled once: a
// window boundary crossing mid-transfer does not re-rate it).
func (cs *chaosState) linkScale(w int, t float64) float64 {
	f := 1.0
	for _, win := range cs.lslow[w] {
		if win.covers(t) {
			f *= win.factor
		}
	}
	return f
}

// dropTransfer flips the seeded coin for a transfer to worker w starting
// at instant t; true means the payload is lost (each covering LinkDrop
// window flips independently).
func (cs *chaosState) dropTransfer(w int, t float64) bool {
	for _, win := range cs.drop[w] {
		if !win.covers(t) {
			continue
		}
		cs.mu.Lock()
		u := cs.rng.Float64()
		cs.mu.Unlock()
		if u < win.factor {
			return true
		}
	}
	return false
}

// replanOwnedChunk maps a dead worker's owned rectangle onto the
// survivors: the same PERI-SUM construction PlanHet runs on the unit
// square is re-run on the survivor speeds, its rectangles are scaled
// into the lost chunk's bounds, and the coordinates are snapped with the
// consistent rounding rule of core.SnapRect (shared boundaries round
// identically), so the pieces tile the rectangle exactly; pieces snapped
// to zero cells vanish without leaving gaps. Survivor owners[Index] owns
// each piece. Falls back to re-issuing the whole rectangle ownerless
// when no survivor partition can be built. Replanned pieces carry
// Task −1; chaosQueue.reclaim allocates fresh ids.
func replanOwnedChunk(c Chunk, owners []int, speeds []float64) []Chunk {
	c.Task = -1
	if len(owners) == 0 {
		c.Owner = -1
		return []Chunk{c}
	}
	part, err := partition.PeriSum(speeds)
	if err != nil {
		c.Owner = -1
		return []Chunk{c}
	}
	h := float64(c.RowHi - c.RowLo)
	wd := float64(c.ColHi - c.ColLo)
	var out []Chunk
	for _, rect := range part.Rects {
		pc := Chunk{
			Task:  -1,
			RowLo: c.RowLo + int(math.Round(rect.Y*h)),
			RowHi: c.RowLo + int(math.Round((rect.Y+rect.H)*h)),
			ColLo: c.ColLo + int(math.Round(rect.X*wd)),
			ColHi: c.ColLo + int(math.Round((rect.X+rect.W)*wd)),
			Owner: owners[rect.Index],
		}
		if pc.RowHi > c.RowHi {
			pc.RowHi = c.RowHi
		}
		if pc.ColHi > c.ColHi {
			pc.ColHi = c.ColHi
		}
		if pc.Cells() <= 0 {
			continue
		}
		out = append(out, pc)
	}
	if len(out) == 0 {
		c.Owner = -1
		return []Chunk{c}
	}
	return out
}

// chaosPoll is how often an idle worker re-polls the queue while
// uncommitted cells remain (waiting for a straggler to finish or a
// crash to free reclaimable work).
const chaosPoll = 500 * time.Microsecond

// sleepCtx sleeps for d or until ctx is cancelled; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
