// Concurrency tests aimed at the race detector (CI runs the whole suite
// under `go test -race`): the sharded queue's stealing path and the
// prefetch goroutines feeding trace.Live.
package runtime

import (
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"nlfl/internal/faults"
	"nlfl/internal/matmul"
	"nlfl/internal/stats"
	"nlfl/internal/trace"
)

// TestWorkQueueConcurrentPop drains one sharded queue from many
// goroutines at once and checks every chunk is delivered exactly once —
// the stealing path is only safe if shard locking is right.
func TestWorkQueueConcurrentPop(t *testing.T) {
	const (
		workers = 8
		grid    = 16 // 256 ownerless chunks
	)
	chunks, err := GridChunks(64, grid)
	if err != nil {
		t.Fatal(err)
	}
	q := newWorkQueue(chunks, workers, 4)

	var mu sync.Mutex
	seen := make(map[int]int, len(chunks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c, ok := q.pop(w)
				if !ok {
					return
				}
				mu.Lock()
				seen[c.Task]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if len(seen) != len(chunks) {
		t.Fatalf("drained %d distinct chunks, want %d", len(seen), len(chunks))
	}
	for task, count := range seen {
		if count != 1 {
			t.Errorf("chunk %d delivered %d times", task, count)
		}
	}
}

// TestRunPrefetchConcurrency runs the full pool with prefetch and the
// bandwidth model on — transfer goroutines racing the compute loop into
// trace.Live — and audits the result. Meaningful under -race.
func TestRunPrefetchConcurrency(t *testing.T) {
	const n = 64
	r := stats.NewRNG(31)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	chunks, err := GridChunks(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := &StrategyPlan{Strategy: "hom", N: n, Chunks: chunks, Grid: 8, K: 1,
		Predicted: float64(2 * n * 8)}
	rep, err := Run(plan, a, b, Options{
		Speeds:        []float64{1, 2, 3, 4},
		WorkPerSecond: 2e6,
		Link:          Link{ElemsPerSecond: 2e5},
		Prefetch:      true,
		VerifyEvery:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-6)); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
}

// TestChaosQueueStealDuringReclaim churns three survivors through the
// resilient queue's next/commit cycle while the main goroutine
// concurrently reclaims a dead worker — whose un-issued backlog lands on
// its home stripe mid-drain, so pop's "empty" verdicts race the push.
// Every cell must still commit exactly once. Meaningful under -race.
func TestChaosQueueStealDuringReclaim(t *testing.T) {
	const (
		workers = 4
		dead    = 3
		n       = 64
	)
	// Half the domain ownerless, half owned by the worker about to die.
	chunks, err := GridChunks(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	totalCells := 0
	for i := range chunks {
		if i%2 == 0 {
			chunks[i].Owner = dead
		}
		totalCells += chunks[i].Cells()
	}
	cq := newChaosQueue(chunks, workers, 4, 0)

	// The dead worker drags a couple of chunks into leased state first so
	// reclaim exercises the lease-revocation path, not just the backlog.
	for i := 0; i < 2; i++ {
		if _, st := cq.next(dead, 0); st != queueGot {
			t.Fatalf("dead worker lease %d: state %v, want queueGot", i, st)
		}
	}

	var mu sync.Mutex
	committed := make(map[int]int)
	cells := 0
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for {
				c, st := cq.next(w, 0)
				switch st {
				case queueDone:
					return
				case queueWait:
					continue // reclaim may still repopulate the shards
				}
				if won, _ := cq.commit(c.Task, w); won {
					mu.Lock()
					committed[c.Task]++
					cells += c.Cells()
					mu.Unlock()
				}
			}
		}(w)
	}
	close(start)
	// Identity replan keeping the task id: reclaimed chunks go ownerless
	// onto the dead worker's home stripe, where only stealing finds them.
	reclaimed, _, over := cq.reclaim(dead, 2, func(c Chunk) []Chunk {
		c.Owner = -1
		return []Chunk{c}
	})
	wg.Wait()

	if over != nil {
		t.Fatalf("reclaim reported exhausted budget for task %d", over.Task)
	}
	if reclaimed == 0 {
		t.Fatal("reclaim recovered zero cells; dead worker's backlog was lost")
	}
	if cells != totalCells {
		t.Errorf("committed %d cells, want %d", cells, totalCells)
	}
	for task, count := range committed {
		if count != 1 {
			t.Errorf("task %d committed %d times", task, count)
		}
	}
}

// TestHighParallelismAffinityStealStress runs the padded affinity queue
// at a GOMAXPROCS well above the machine's core count: twelve workers on
// sixteen scheduler threads, one home stripe each (the default), prefetch
// fetchers racing the compute loops into trace.Live. Fast workers drain
// their own stripes then cross into each other's via the ring steal —
// exactly the path the shard padding and contiguous layout rewrote.
// Meaningful under -race.
func TestHighParallelismAffinityStealStress(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(16))
	const (
		n       = 128
		workers = 12
	)
	r := stats.NewRNG(53)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	chunks, err := GridChunks(n, 16) // 256 chunks over 12 home stripes
	if err != nil {
		t.Fatal(err)
	}
	plan := &StrategyPlan{Strategy: "hom", N: n, Chunks: chunks, Grid: 16, K: 1,
		Predicted: float64(2 * n * 16)}
	speeds := make([]float64, workers)
	for i := range speeds {
		speeds[i] = 1 + float64(i%3) // unequal speeds force cross-stripe steals
	}
	rep, err := Run(plan, a, b, Options{
		Speeds:        speeds,
		WorkPerSecond: 5e7,
		Prefetch:      true,
		VerifyEvery:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
}

// TestHighParallelismCrashReclaimStress is the chaos flavor of the same
// stress: two of twelve workers crash mid-run, so reclamation pushes land
// on dead workers' home stripes while the ten survivors' ring steals scan
// them concurrently — the steal-during-reclaim interleaving on the padded
// contiguous shard array, under a 16-thread scheduler. The whole domain
// takes well under the crash instants to compute, so the test hook holds
// workers 2 and 9 on their first chunk for 7 ms: both crashes then land
// while each holds a lease, on every run and core count. Meaningful
// under -race.
func TestHighParallelismCrashReclaimStress(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(16))
	const (
		n       = 128
		workers = 12
	)
	r := stats.NewRNG(59)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	chunks, err := GridChunks(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	plan := &StrategyPlan{Strategy: "hom", N: n, Chunks: chunks, Grid: 16, K: 1,
		Predicted: float64(2 * n * 16)}
	speeds := make([]float64, workers)
	for i := range speeds {
		speeds[i] = 1
	}
	// held[w] is written only by worker w's own goroutine.
	held := make([]bool, workers)
	rep, err := Run(plan, a, b, Options{
		Speeds:        speeds,
		WorkPerSecond: 2e6,
		Burst:         1,
		VerifyEvery:   11,
		testHookChunkStart: func(w int, c Chunk) {
			if (w == 2 || w == 9) && !held[w] {
				held[w] = true
				time.Sleep(7 * time.Millisecond)
			}
		},
		Chaos: Chaos{
			Scenario: faults.Scenario{Events: []faults.Event{
				{Kind: faults.Crash, Worker: 2, Time: 0.004},
				{Kind: faults.Crash, Worker: 9, Time: 0.006},
			}},
			MaxRetries: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := matmul.VectorOuter(a, b); !want.Equal(rep.Out, 0) {
		t.Errorf("product differs from the reference kernel")
	}
	if vs := trace.Check(rep.Trace, rep.Expect(1e-9)); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
	if rep.DegradedWorkers != 2 {
		t.Errorf("DegradedWorkers = %d, want 2", rep.DegradedWorkers)
	}
	if rep.DataVolume != rep.CommittedVolume+rep.WastedData {
		t.Errorf("shipping ledger leaks: %v ≠ %v + %v", rep.DataVolume, rep.CommittedVolume, rep.WastedData)
	}
}
