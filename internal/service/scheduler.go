package service

import (
	"fmt"
	"sort"

	nrt "nlfl/internal/runtime"
)

// next is the scheduling step: housekeeping (expired deadlines,
// cancellations, due chaos crashes), then the policy's job order, then
// the first job whose executor leases worker w a chunk. Everything runs
// under fleet.mu; the serve step runs outside it, in the job's executor.
func (f *Fleet) next(w int) (*job, nrt.Chunk, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	f.housekeepLocked(now)
	disc, _ := f.cfg.Policy.order()
	for _, j := range f.orderedLocked(disc, now) {
		if c, ok := j.ex.Next(w, now); ok {
			if j.startAt < 0 {
				j.startAt = now
				j.ex.Begin(now)
			}
			j.serving++
			return j, c, true
		}
		if disc == dFIFO {
			// Head-of-line exclusivity: the oldest unfinished job owns the
			// fleet; nothing later is touched until it finishes.
			break
		}
	}
	return nil, nrt.Chunk{}, false
}

// housekeepLocked retires expired/cancelled jobs and fires due
// job-scoped crashes. A worker serving a job notices its own crash
// instant; Reap realizes the crashes of workers that are busy elsewhere
// or idle, so a due crash takes effect at the next scheduling step.
func (f *Fleet) housekeepLocked(now float64) {
	for _, j := range append([]*job(nil), f.active...) {
		if j.terminal() {
			continue
		}
		if err := j.ctx.Err(); err != nil {
			f.finalizeLocked(j, fmt.Errorf("service: job %d (tenant %q): %w", j.id, j.tenant, err))
			continue
		}
		if !j.chaos || j.startAt < 0 {
			continue
		}
		died, err := j.ex.Reap(now)
		f.settleDeathsLocked(j, died, err)
	}
}

// settleDeathsLocked applies a job's worker deaths to the fleet: each
// dead worker takes a health strike, the reclaimed work wakes the pool,
// and a job whose budget or slice is exhausted fails alone.
func (f *Fleet) settleDeathsLocked(j *job, died []int, err error) {
	for _, w := range died {
		f.strikeLocked(w)
	}
	if err != nil {
		f.finalizeLocked(j, fmt.Errorf("%w: %w", ErrJobFailed, err))
	} else if len(died) > 0 {
		f.wakeAll()
	}
}

// orderedLocked returns the active jobs in service order. FIFO keeps
// admission order. The other policies order first by the owning tenant's
// attained service (fair share: the tenant served least comes first, so
// one tenant's flood queues behind its own jobs, not everyone's), then
// by the policy key, then by id for determinism.
func (f *Fleet) orderedLocked(disc discipline, now float64) []*job {
	if disc == dFIFO || len(f.active) < 2 {
		return f.active
	}
	jobs := append([]*job(nil), f.active...)
	key := func(j *job) float64 {
		switch disc {
		case dSRPT:
			// Remaining work, aged down while waiting: small jobs overtake,
			// big ones cannot starve.
			return j.remainingCells() - f.cfg.AgingCellsPerSec*(now-j.submitAt)
		default: // dInterleaved
			// Least attained service, aged down over the job's lifetime.
			// Without the aging term a sustained arrival stream starves the
			// oldest jobs: every fresh job starts at attained 0 and outranks
			// a half-served one forever. Aging makes seniority win
			// eventually, bounding the tail while young jobs still
			// round-robin.
			return j.committedCells - f.cfg.AgingCellsPerSec*(now-j.submitAt)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		if ta, tb := f.accounts[ja.tenant].ServedCells, f.accounts[jb.tenant].ServedCells; ta != tb {
			return ta < tb
		}
		if ka, kb := key(ja), key(jb); ka != kb {
			return ka < kb
		}
		return ja.id < jb.id
	})
	return jobs
}
