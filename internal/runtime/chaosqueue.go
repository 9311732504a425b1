package runtime

import (
	"sort"
	"sync"
)

// chaosLease is one chunk currently issued to at least one worker. Under
// faults a chunk can be in flight on several workers at once (the
// original holder plus a speculative copy); the lease tracks who holds
// it and since when, so the queue can arbitrate first-writer-wins
// commits, reclaim a dead holder's work, and pick speculation victims.
// Holders are stored inline — a chunk is never issued to more than two
// workers (the holder plus one speculative copy) — and retired leases are
// recycled through the queue's free list, so the steady-state lease churn
// allocates nothing.
type chaosLease struct {
	c        Chunk
	holders  [2]int
	nholders int
	first    int     // worker the current lease generation was first issued to
	since    float64 // live-clock instant of that first issue
}

// queueState is chaosQueue.next's verdict for a polling worker.
type queueState int

const (
	// queueGot: a chunk was leased to the caller.
	queueGot queueState = iota
	// queueWait: nothing to hand out right now, but uncommitted cells
	// remain — another holder may crash and its work be reclaimed, so
	// poll again.
	queueWait
	// queueDone: every cell of the domain is committed.
	queueDone
)

// chaosQueue is the resilient wrapper around the sharded workQueue. The
// fault-free pool hands each chunk out once and forgets it; under chaos
// a handout is a revocable lease. One mutex covers all bookkeeping —
// lease churn is per-chunk, not per-cell, so the lock is far off the
// compute path (and the fast path never constructs a chaosQueue at all).
//
// Owned (het) backlogs live here rather than in workQueue's private lanes
// because reclamation mutates them concurrently: a survivor may be
// appended replanned rectangles while it drains its backlog.
type chaosQueue struct {
	mu        sync.Mutex
	q         *workQueue // shared shards: ownerless chunks + reclaimed work
	private   [][]Chunk  // owned (het) backlogs, mutated by reclaim
	phead     []int
	dead      []bool
	leases    map[int]*chaosLease
	committed map[int]bool
	recovered map[int]int // task → times its lineage was reclaimed (retry ledger)
	cellsLeft int
	nextTask  int // id allocator for replanned pieces
	specAfter float64
	freeLease []*chaosLease // retired lease records, reused by lease()
}

// newChaosQueue builds the resilient queue. specAfter is the speculation
// age threshold in seconds (≤ 0 disables speculative re-execution).
func newChaosQueue(chunks []Chunk, workers, shards int, specAfter float64) *chaosQueue {
	cq := &chaosQueue{
		private:   make([][]Chunk, workers),
		phead:     make([]int, workers),
		dead:      make([]bool, workers),
		leases:    map[int]*chaosLease{},
		committed: map[int]bool{},
		recovered: map[int]int{},
		specAfter: specAfter,
	}
	var shared []Chunk
	for _, c := range chunks {
		cq.cellsLeft += c.Cells()
		if c.Task >= cq.nextTask {
			cq.nextTask = c.Task + 1
		}
		if c.Owner >= 0 && c.Owner < workers {
			cq.private[c.Owner] = append(cq.private[c.Owner], c)
		} else {
			shared = append(shared, c)
		}
	}
	cq.q = newWorkQueue(shared, workers, shards)
	return cq
}

// next leases worker w its next chunk at live instant now: its own
// backlog first, then the shared shards (home stripe, then ring steal),
// then — with speculation enabled — the stalest chunk some other worker
// has held past the threshold (whether a lease was speculative is
// resolved at commit time from the lease's first holder). A dead worker
// is done: nothing is leased to it again.
func (cq *chaosQueue) next(w int, now float64) (c Chunk, st queueState) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.cellsLeft == 0 || cq.dead[w] {
		return Chunk{}, queueDone
	}
	if cq.phead[w] < len(cq.private[w]) {
		c = cq.private[w][cq.phead[w]]
		cq.phead[w]++
		cq.lease(c, w, now)
		return c, queueGot
	}
	if c, ok := cq.q.pop(w); ok {
		cq.lease(c, w, now)
		return c, queueGot
	}
	if cq.specAfter > 0 {
		var best *chaosLease
		for _, l := range cq.leases {
			if l.nholders != 1 || l.holders[0] == w {
				continue // already speculated, or our own chunk
			}
			if now-l.since < cq.specAfter {
				continue
			}
			// Oldest lease first; tie-break on task id so map order
			// cannot influence the choice.
			if best == nil || l.since < best.since || (l.since == best.since && l.c.Task < best.c.Task) {
				best = l
			}
		}
		if best != nil {
			best.holders[best.nholders] = w
			best.nholders++
			return best.c, queueGot
		}
	}
	return Chunk{}, queueWait
}

func (cq *chaosQueue) lease(c Chunk, w int, now float64) {
	var l *chaosLease
	if k := len(cq.freeLease); k > 0 {
		l = cq.freeLease[k-1]
		cq.freeLease = cq.freeLease[:k-1]
	} else {
		l = new(chaosLease)
	}
	*l = chaosLease{c: c, first: w, since: now}
	l.holders[0] = w
	l.nholders = 1
	cq.leases[c.Task] = l
}

// retire removes a lease from the table and returns its record to the
// free list. Callers must hold cq.mu and must not touch l afterwards.
func (cq *chaosQueue) retire(task int, l *chaosLease) {
	delete(cq.leases, task)
	cq.freeLease = append(cq.freeLease, l)
}

// commit resolves the first-writer-wins race for a finished copy of
// task. won=false means another copy already committed, or w died
// before committing and its lease was reclaimed (either way this copy's
// work is Wasted); specWin marks a win by a worker other than the
// lease's first holder — a successful speculation.
func (cq *chaosQueue) commit(task, w int) (won, specWin bool) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.committed[task] || cq.dead[w] {
		return false, false
	}
	l := cq.leases[task]
	cq.committed[task] = true
	cells := l.c.Cells()
	specWin = l.first != w
	cq.retire(task, l)
	cq.cellsLeft -= cells
	return true, specWin
}

// reclaim removes dead worker w from the pool and re-enqueues everything
// it was solely responsible for: the un-issued remainder of its owned
// backlog plus every lease it alone held. Each lost chunk is passed to
// replan, which maps it onto survivors (splitting owned rectangles via
// PERI-SUM; identity for ownerless chunks); pieces destined for a live
// owner join that owner's backlog, the rest go to w's home shard stripe
// where ring stealing finds them. replan runs under cq's mutex and may
// read cq.dead (but must not call back into cq).
//
// Returns the reclaimed cell count, the extra communication volume the
// re-plan added (Σ piece data − Σ lost data ≥ 0: a rectangle partition
// never ships less than its whole), and — when a chunk's lineage has
// been reclaimed more than maxRecover times — that chunk, signalling an
// exhausted retry budget.
func (cq *chaosQueue) reclaim(w int, maxRecover int, replan func(Chunk) []Chunk) (cells int, extra float64, overBudget *Chunk) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	cq.dead[w] = true
	lost := append([]Chunk(nil), cq.private[w][cq.phead[w]:]...)
	cq.phead[w] = len(cq.private[w])
	for task, l := range cq.leases {
		keep := 0
		for _, h := range l.holders[:l.nholders] {
			if h != w {
				l.holders[keep] = h
				keep++
			}
		}
		l.nholders = keep
		if l.nholders == 0 {
			lost = append(lost, l.c)
			cq.retire(task, l)
		}
	}
	// Map iteration order is random; sort so recovery is deterministic.
	sort.Slice(lost, func(i, j int) bool { return lost[i].Task < lost[j].Task })
	for _, c := range lost {
		gen := cq.recovered[c.Task] + 1
		if gen > maxRecover {
			over := c
			return cells, extra, &over
		}
		cells += c.Cells()
		extra -= float64(c.Data())
		for _, pc := range replan(c) {
			if pc.Task < 0 {
				pc.Task = cq.nextTask
				cq.nextTask++
			}
			cq.recovered[pc.Task] = gen
			extra += float64(pc.Data())
			if pc.Owner >= 0 && pc.Owner < len(cq.dead) && !cq.dead[pc.Owner] && pc.Owner != w {
				cq.private[pc.Owner] = append(cq.private[pc.Owner], pc)
			} else {
				pc.Owner = -1
				cq.q.push(w, pc)
			}
		}
	}
	return cells, extra, nil
}

// isDead reports whether worker w has been reclaimed.
func (cq *chaosQueue) isDead(w int) bool {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.dead[w]
}

// allDead reports whether no worker survives.
func (cq *chaosQueue) allDead() bool {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	for _, d := range cq.dead {
		if !d {
			return false
		}
	}
	return true
}
