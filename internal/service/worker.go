package service

import (
	"context"
	"time"

	nrt "nlfl/internal/runtime"
)

// workerPoll bounds how long an idle worker waits before rechecking the
// schedule; wake channels usually preempt it.
const workerPoll = 2 * time.Millisecond

// worker is one fleet worker's persistent loop: it lives as long as the
// fleet, owns its token bucket and staging buffers across every job it
// serves, asks the scheduler for a chunk whenever it is idle, and runs
// it through that job's executor.
func (f *Fleet) worker(w int) {
	defer f.wg.Done()
	wk := nrt.NewWorker(w, f.speeds[w]*f.rate, f.cfg.Burst)
	for {
		if f.ctx.Err() != nil {
			return
		}
		j, c, ok := f.next(w)
		if !ok {
			if !sleepWake(f.ctx, f.wake[w], workerPoll) {
				return
			}
			continue
		}
		f.finishServe(j, w, j.ex.Serve(j.ctx, wk, c))
	}
}

// finishServe settles one served chunk: a death strikes the worker, a
// job failure finalizes the job alone, a commit accrues attained
// service to the job and its tenant, and when the last in-flight chunk
// drains with every cell committed the job completes. Terminal jobs
// (failed, cancelled, fleet-closed) were finalized eagerly and just
// drain.
func (f *Fleet) finishServe(j *job, w int, st nrt.Step) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j.serving--
	if j.terminal() {
		return
	}
	var died []int
	if st.Died {
		died = []int{w}
	}
	f.settleDeathsLocked(j, died, st.Err)
	if j.terminal() {
		return
	}
	j.committedCells += st.Committed
	f.ledgerLocked(j.tenant).ServedCells += st.Committed
	if j.committedCells == float64(j.n*j.n) && j.serving == 0 {
		f.finalizeLocked(j, nil)
	}
}

// sleepWake waits for a wake signal, the poll tick, or shutdown; false
// means the fleet is closing.
func sleepWake(ctx context.Context, wake <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-wake:
		return true
	case <-t.C:
		return true
	}
}
