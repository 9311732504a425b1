package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nlfl/internal/service"
)

// TestServeMux drives the HTTP façade end to end against a real fleet:
// submit, poll to completion, read the accounts and the health page, and
// watch admission shed when the queue is full.
func TestServeMux(t *testing.T) {
	fleet, err := service.New(service.Config{
		Speeds:        []float64{1, 2},
		WorkPerSecond: 5e5,
		MaxQueue:      2,
		TenantQuota:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	st := &serveState{fleet: fleet, jobs: map[int64]*service.JobHandle{}}
	ts := httptest.NewServer(newServeMux(st))
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]int64) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]int64
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, out
	}

	resp, ids := post(`{"tenant":"a","n":32,"strategy":"het","seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	id := ids["id"]

	var status jobStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs?id=" + jsonNum(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.State != "done" || status.Err != "" {
		t.Fatalf("job state %q err %q, want done", status.State, status.Err)
	}
	if status.CommittedVolume != status.PlanVolume || status.PlanVolume <= 0 {
		t.Fatalf("fault-free ledger not exact: committed %v plan %v",
			status.CommittedVolume, status.PlanVolume)
	}

	// A bad spec is a 400, not an admission rejection.
	if resp, _ := post(`{"tenant":"a","n":-5}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: got %d, want 400", resp.StatusCode)
	}
	// Unknown ids are 404.
	if resp, err := http.Get(ts.URL + "/jobs?id=99999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: got %v %v, want 404", resp.StatusCode, err)
	}

	var acc service.FleetReport
	resp2, err := http.Get(ts.URL + "/accounts")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if acc.Completed < 1 || len(acc.Tenants) == 0 {
		t.Fatalf("accounts: completed %d tenants %d", acc.Completed, len(acc.Tenants))
	}

	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Workers int                   `json:"workers"`
		Health  []service.WorkerState `json:"health"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if hz.Workers != 2 || len(hz.Health) != 2 {
		t.Fatalf("healthz: workers %d health %d, want 2", hz.Workers, len(hz.Health))
	}
}

// TestServeAdmissionSheds fills the bounded queue with slow jobs and
// checks the façade answers 429, the backpressure contract.
func TestServeAdmissionSheds(t *testing.T) {
	fleet, err := service.New(service.Config{
		Speeds:        []float64{1},
		WorkPerSecond: 2e3, // slow on purpose: jobs stay in-flight
		MaxQueue:      2,
		TenantQuota:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	st := &serveState{fleet: fleet, jobs: map[int64]*service.JobHandle{}}
	ts := httptest.NewServer(newServeMux(st))
	defer ts.Close()

	codes := make([]int, 0, 3)
	var last rejectBody
	var lastRetryAfter string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"tenant":"flood","n":48}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
				t.Fatalf("429 body is not JSON: %v", err)
			}
			lastRetryAfter = resp.Header.Get("Retry-After")
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusAccepted || codes[1] != http.StatusAccepted {
		t.Fatalf("first two submits: got %v, want 202s", codes)
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third submit: got %d, want 429", codes[2])
	}
	// The regression this pins: a 429 must say *why* — quota pressure and
	// fleet overload call for different client reactions.
	if last.Reason != string(service.RejectQueueFull) {
		t.Fatalf("429 reason %q, want %q (body %+v)", last.Reason, service.RejectQueueFull, last)
	}
	if last.Detail == "" || last.Error == "" {
		t.Fatalf("429 body missing detail or error: %+v", last)
	}
	// Backpressure regression: every 429 carries a Retry-After hint
	// derived from queue depth (depth 2 → 1 + 2/4 = 1 second).
	if lastRetryAfter != "1" {
		t.Fatalf("429 Retry-After = %q, want %q for queue depth 2", lastRetryAfter, "1")
	}
}

// TestRetryAfterScalesWithQueueDepth pins the header's scaling: one
// extra second per four queued jobs, capped at 30.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	cases := []struct {
		depth int
		want  string
	}{
		{0, "1"}, {2, "1"}, {4, "2"}, {16, "5"}, {1000, "30"},
	}
	for _, c := range cases {
		if got := retryAfter(c.depth); got != c.want {
			t.Errorf("retryAfter(%d) = %q, want %q", c.depth, got, c.want)
		}
	}
}

// rejectBody is the JSON shape of a 429 from POST /jobs.
type rejectBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
	Detail string `json:"detail"`
}

// TestServeRejectReasons drives the façade over a fleet with a
// per-tenant quota and an autoscaler: the three 429 flavors a client
// can hit (tenant-quota, queue-full, amdahl-cap) each carry their own
// machine-readable reason.
func TestServeRejectReasons(t *testing.T) {
	fleet, err := service.New(service.Config{
		Speeds:         []float64{1, 2, 3, 4},
		WorkPerSecond:  3e4,
		MaxQueue:       8,
		TenantQuota:    1,
		AutoscaleTheta: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	st := &serveState{fleet: fleet, jobs: map[int64]*service.JobHandle{}}
	ts := httptest.NewServer(newServeMux(st))
	defer ts.Close()

	reject := func(body string) rejectBody {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("got %d, want 429", resp.StatusCode)
		}
		var rb rejectBody
		if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
			t.Fatal(err)
		}
		return rb
	}

	// An impossible deadline is shed by the capacity model at the door.
	if rb := reject(`{"tenant":"rush","n":96,"deadlineMs":1}`); rb.Reason != string(service.RejectAmdahlCap) {
		t.Errorf("amdahl-cap rejection carried reason %q (body %+v)", rb.Reason, rb)
	}
	// Fill tenant "flood"'s quota of one, then hit the quota reason.
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"flood","n":96}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first flood submit: got %d, want 202", resp.StatusCode)
	}
	if rb := reject(`{"tenant":"flood","n":96}`); rb.Reason != string(service.RejectTenantQuota) {
		t.Errorf("quota rejection carried reason %q (body %+v)", rb.Reason, rb)
	}
}

func jsonNum(id int64) string {
	b, _ := json.Marshal(id)
	return string(b)
}

// TestServeRejectsOversizedRequests: a job whose n×n output the server
// will not allocate, and a body past the size cap, are both 400s before
// the fleet sees them — and the next ordinary job still completes.
func TestServeRejectsOversizedRequests(t *testing.T) {
	fleet, err := service.New(service.Config{Speeds: []float64{1, 2}, WorkPerSecond: 5e5})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	st := &serveState{fleet: fleet, jobs: map[int64]*service.JobHandle{}}
	ts := httptest.NewServer(newServeMux(st))
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	huge := post(`{"tenant":"a","n":1000000}`)
	huge.Body.Close()
	if huge.StatusCode != http.StatusBadRequest {
		t.Fatalf("n=1000000: got %d, want 400", huge.StatusCode)
	}
	padded := post(`{"tenant":"` + strings.Repeat("x", maxSubmitBytes) + `","n":32}`)
	padded.Body.Close()
	if padded.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: got %d, want 400", padded.StatusCode)
	}
	if acc := fleet.Accounting(); acc.Submitted != 0 {
		t.Fatalf("oversized requests reached the fleet: %d submitted", acc.Submitted)
	}

	resp := post(`{"tenant":"a","n":32,"seed":3}`)
	var sub struct {
		ID int64 `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ordinary job after the rejections: status %d, err %v", resp.StatusCode, err)
	}
	st.mu.Lock()
	h := st.jobs[sub.ID]
	st.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatalf("ordinary job failed: %v", err)
	}
}
