package main

import (
	"fmt"

	"nlfl/internal/matmul"
	"nlfl/internal/trace"
)

// volumeTol is the trace oracle's volume tolerance. hom/k's analytic
// volume differs from the volume its rounded grid ships by well under
// 1%, the same gate internal/bench applies to the demand-driven plans.
const volumeTol = 0.01

// spotCells is how many output cells each job's gate recomputes.
const spotCells = 16

// check is what the correctness gate compares one finished job against:
// the benchmark's own inputs, the program's output and trace, and the
// volume ledger of a fault-free job.
type check struct {
	a, b   []float64
	out    *matmul.Matrix
	tl     *trace.Timeline
	expect *trace.Expect
	// shipped is the volume the job reports moving (committed volume for
	// a fleet job, shipped volume for a single run); a fault-free job
	// must move exactly planVolume.
	shipped, planVolume float64
	// probe seeds the choice of spot-checked cells.
	probe uint64
}

// verify runs the gate: spot cells equal a[i]·b[j] exactly, the ledger
// closes exactly and the trace oracle reports no violation.
func (c *check) verify() error {
	n := len(c.a)
	if c.out == nil || c.out.Rows != n || c.out.Cols != n {
		return fmt.Errorf("output missing or mis-shaped for n=%d", n)
	}
	x := c.probe | 1
	for k := 0; k < spotCells; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := int((x >> 33) % uint64(n*n))
		i, j := idx/n, idx%n
		if got, want := c.out.Data[idx], c.a[i]*c.b[j]; got != want {
			return fmt.Errorf("cell (%d,%d) = %v, want %v", i, j, got, want)
		}
	}
	if c.shipped != c.planVolume {
		return fmt.Errorf("ledger: moved volume %v ≠ plan volume %v", c.shipped, c.planVolume)
	}
	if vs := trace.Check(c.tl, c.expect); len(vs) > 0 {
		return fmt.Errorf("trace oracle: %d violations, first: %v", len(vs), vs[0])
	}
	return nil
}
