package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-tests hold the code to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// wantMetrics checks that got holds exactly the named metrics, each
// finite and carrying its unit.
func wantMetrics(t *testing.T, label string, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: unexpected metric %s", label, m.Name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, want %q", label, m.Name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v is not finite", label, m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: metric %s missing", label, name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and
// traced, and checks every metric BENCHMARK.json names; every workload
// BENCHMARK.json gates must exist.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; under -race the open loop overloads the slowed fleet")
	}
	s := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	nlfl := filepath.Join(t.TempDir(), "nlfl")
	build := exec.Command("go", "build", "-o", nlfl, "./cmd/nlfl")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build nlfl: %v\n%s", err, out)
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	for name, fn := range workloads {
		cfg := runConfig{seed: 3, window: 400 * time.Millisecond, setups: 2}
		o, err := fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.attempted < 1 || o.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d (%v)", name, o.attempted, o.failed, o.notes[:min(3, len(o.notes))])
		}
		wantMetrics(t, name, o.e2e, e2e)
		attempted, failed, layers, err := runTraced(name, fn, cfg, nlfl)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if attempted < 1 || failed != 0 {
			t.Errorf("%s traced: attempted %d, failed %d", name, attempted, failed)
		}
		wantMetrics(t, name+" traced", layers, layer)
	}
}

// TestGateCountsCorruption is the mutation check: a corrupted expected
// cell or ledger must land in the failed count, and so in verified_frac.
func TestGateCountsCorruption(t *testing.T) {
	tampers := map[string]func(*check){
		"expected cell": func(c *check) {
			c.a = append([]float64(nil), c.a...)
			for i := range c.a {
				c.a[i] += 1
			}
		},
		"ledger": func(c *check) { c.planVolume++ },
	}
	for name, tamper := range tampers {
		for _, w := range []string{"engine-large", "fleet-steady"} {
			o, err := workloads[w](runConfig{seed: 5, window: 200 * time.Millisecond, setups: 1, tamper: tamper})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, w, err)
			}
			if o.attempted == 0 || o.failed != o.attempted {
				t.Errorf("%s/%s: %d of %d jobs failed the gate, want all", name, w, o.failed, o.attempted)
			}
			for _, m := range o.e2e {
				if m.Name == "verified_frac" && m.Value != 0 {
					t.Errorf("%s/%s: verified_frac = %v, want 0", name, w, m.Value)
				}
			}
		}
	}
}

// TestGateCatchesTraceViolation shows the trace oracle is armed: a job
// checked against half its processed work fails.
func TestGateCatchesTraceViolation(t *testing.T) {
	o, err := runEngine(runConfig{seed: 6, window: 100 * time.Millisecond, setups: 1, tamper: func(c *check) {
		exp := *c.expect
		exp.ProcessedWork /= 2
		c.expect = &exp
	}})
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted == 0 || o.failed != o.attempted {
		t.Errorf("%d of %d jobs failed the gate, want all", o.failed, o.attempted)
	}
}

func TestSummarizeTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantAt float64
	}{{1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {5, 100}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		s := summarize(xs)
		if s.TailAt != tc.wantAt {
			t.Errorf("n=%d: tail at p%g, want p%g", tc.n, s.TailAt, tc.wantAt)
		}
		if s.P50 != float64((tc.n+1)/2) {
			t.Errorf("n=%d: p50 = %v", tc.n, s.P50)
		}
	}
	xs := make([]float64, 1000)
	if s := summarizeAt(xs, 90); s.TailAt != 90 {
		t.Errorf("summarizeAt(1000 samples, 90): tail at p%g, want p90", s.TailAt)
	}
}
