package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlfl/internal/faults"
	"nlfl/internal/stats"
)

// TestExecutorReapRacesServingWorker drives one Executor the way a fleet
// does: worker 0 serves a chunk whose compute spans its crash instant
// while another goroutine realizes the same crash through Reap. Whichever
// side gets there first, the death is reported exactly once, worker 0
// commits nothing, a survivor finishes the reclaimed work, and the
// closing audit and a full spot check pass. Meaningful under -race.
func TestExecutorReapRacesServingWorker(t *testing.T) {
	const (
		n       = 64
		crashAt = 0.005
	)
	r := stats.NewRNG(71)
	a := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	b := stats.SampleN(stats.Uniform{Lo: -1, Hi: 1}, r, n)
	chunks, err := GridChunks(n, 4) // 16 chunks of 256 cells
	if err != nil {
		t.Fatal(err)
	}
	plan := &StrategyPlan{Strategy: "hom", N: n, Chunks: chunks, Grid: 4, K: 1, Predicted: float64(2 * n * 4)}
	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() }
	e, err := NewExecutor(plan, a, b, ExecConfig{
		Speeds: []float64{1, 1},
		Clock:  clock,
		Chaos:  Chaos{Scenario: faults.SingleCrash(0, crashAt), MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Begin(0)
	ctx := context.Background()

	var deaths atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// 256 cells at 1e4 cells/s outlast the crash instant by far.
		slow := NewWorker(0, 1e4, 1)
		c, ok := e.Next(0, clock())
		if !ok {
			return // the reaper already took worker 0 out
		}
		st := e.Serve(ctx, slow, c)
		if st.Committed != 0 {
			t.Errorf("worker 0 committed %v cells across its crash", st.Committed)
		}
		if st.Died {
			deaths.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for clock() < crashAt {
			time.Sleep(100 * time.Microsecond)
		}
		died, err := e.Reap(clock())
		if err != nil {
			t.Errorf("reap: %v", err)
		}
		deaths.Add(int32(len(died)))
	}()
	wg.Wait()

	fast := NewWorker(1, 1e9, 0)
	committed := 0.0
	for {
		c, ok := e.Next(1, clock())
		if !ok {
			break
		}
		st := e.Serve(ctx, fast, c)
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		committed += st.Committed
	}
	if committed != n*n {
		t.Errorf("survivor committed %v cells, want %v", committed, n*n)
	}
	if d := deaths.Load(); d != 1 {
		t.Errorf("worker 0's death reported %d times, want once", d)
	}
	led, _, err := e.Close(true, 1)
	if err != nil {
		t.Fatalf("closing audit: %v", err)
	}
	if led.Degraded != 1 || led.ReclaimedCells == 0 {
		t.Errorf("ledger: degraded %d, reclaimed %d; want 1 and > 0", led.Degraded, led.ReclaimedCells)
	}
	if led.DataVolume != led.CommittedVolume+led.WastedData {
		t.Errorf("shipping ledger leaks: %v ≠ %v + %v", led.DataVolume, led.CommittedVolume, led.WastedData)
	}
}
