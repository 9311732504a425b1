package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	nrt "nlfl/internal/runtime"
	"nlfl/internal/service"
)

// serveState is the HTTP façade over one long-lived Fleet: it keeps the
// handles of every admitted job so clients can poll them by id.
type serveState struct {
	fleet *service.Fleet

	mu   sync.Mutex
	jobs map[int64]*service.JobHandle
}

// The front door rejects what the fleet cannot serve before anything is
// allocated for it.
const (
	// maxServeN caps a submitted job's n: its n×n output (128 MiB of
	// float64 at the cap) is allocated at admission.
	maxServeN = 4096
	// maxSubmitBytes caps the POST /jobs body; a submitRequest encodes in
	// well under 1 KiB.
	maxSubmitBytes = 4 << 10
	// serveReadHeaderTimeout bounds how long a client may take to send
	// its request headers.
	serveReadHeaderTimeout = 10 * time.Second
)

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Tenant     string  `json:"tenant"`
	N          int     `json:"n"`
	Strategy   string  `json:"strategy"`
	Seed       int64   `json:"seed"`
	DeadlineMs float64 `json:"deadlineMs"`
	MaxWorkers int     `json:"maxWorkers"`
}

// jobStatus is the GET /jobs?id= body: the job ledger minus the output
// matrix and trace (poll state until "done" or "failed", then read the
// volumes; the matrix itself stays server-side).
type jobStatus struct {
	ID      int64  `json:"id"`
	State   string `json:"state"` // "running", "done" or "failed"
	Tenant  string `json:"tenant,omitempty"`
	N       int    `json:"n,omitempty"`
	Workers []int  `json:"workers,omitempty"`

	Latency         float64 `json:"latency,omitempty"`
	Makespan        float64 `json:"makespan,omitempty"`
	PlanVolume      float64 `json:"planVolume,omitempty"`
	ReplannedVolume float64 `json:"replannedVolume,omitempty"`
	CommittedVolume float64 `json:"committedVolume,omitempty"`
	WastedData      float64 `json:"wastedData,omitempty"`
	ReclaimedCells  int     `json:"reclaimedCells,omitempty"`

	Err string `json:"err,omitempty"`
}

// newServeMux wires the fleet API: submit, poll, accounts, health.
func newServeMux(st *serveState) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", st.handleJobs)
	mux.HandleFunc("/accounts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, st.fleet.Accounting())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"workers": st.fleet.Workers(),
			"health":  st.fleet.Health(),
		})
	})
	return mux
}

func (st *serveState) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		st.handleSubmit(w, r)
	case http.MethodGet:
		st.handleGet(w, r)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (st *serveState) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.N > maxServeN {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("n=%d exceeds the server's limit of %d", req.N, maxServeN)})
		return
	}
	h, err := st.fleet.Submit(service.JobSpec{
		Tenant:     req.Tenant,
		N:          req.N,
		Strategy:   req.Strategy,
		Seed:       req.Seed,
		Deadline:   time.Duration(req.DeadlineMs * float64(time.Millisecond)),
		MaxWorkers: req.MaxWorkers,
	})
	if err != nil {
		// Shed load loudly: admission rejection is the backpressure signal,
		// everything else is a spec error. Rejections carry the typed
		// reason so clients can tell quota pressure from fleet overload
		// from the capacity model's amdahl-cap verdict and react
		// differently (back off, resubmit elsewhere, drop the deadline).
		var ae *service.AdmissionError
		if errors.As(err, &ae) {
			w.Header().Set("Retry-After", retryAfter(st.fleet.QueueDepth()))
			writeJSON(w, http.StatusTooManyRequests, map[string]string{
				"error":  err.Error(),
				"reason": string(ae.Reason),
				"detail": ae.Detail,
			})
			return
		}
		code := http.StatusBadRequest
		if errors.Is(err, service.ErrAdmissionRejected) {
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", retryAfter(st.fleet.QueueDepth()))
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	st.mu.Lock()
	st.jobs[h.ID()] = h
	st.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]int64{"id": h.ID()})
}

func (st *serveState) handleGet(w http.ResponseWriter, r *http.Request) {
	var id int64
	if _, err := fmt.Sscanf(r.URL.Query().Get("id"), "%d", &id); err != nil {
		http.Error(w, "missing or malformed id", http.StatusBadRequest)
		return
	}
	st.mu.Lock()
	h := st.jobs[id]
	st.mu.Unlock()
	if h == nil {
		http.Error(w, "unknown job id", http.StatusNotFound)
		return
	}
	rep := h.Report()
	if rep == nil {
		writeJSON(w, http.StatusOK, jobStatus{ID: id, State: "running"})
		return
	}
	s := jobStatus{
		ID: id, State: "done",
		Tenant: rep.Tenant, N: rep.N, Workers: rep.Workers,
		Latency: rep.Latency, Makespan: rep.Makespan,
		PlanVolume: rep.PlanVolume, ReplannedVolume: rep.ReplannedVolume,
		CommittedVolume: rep.CommittedVolume, WastedData: rep.WastedData,
		ReclaimedCells: rep.ReclaimedCells,
		Err:            rep.Err,
	}
	if rep.Failed {
		s.State = "failed"
	}
	writeJSON(w, http.StatusOK, s)
}

// retryAfter turns the fleet's queue depth into a Retry-After hint in
// whole seconds: 1s for a shallow queue, one extra second per four
// queued jobs, capped at 30s. Clients should treat it as a *minimum*
// and add their own jitter (see docs/CAPACITY.md) — if every shed
// client sleeps exactly this long, they all come back in the same
// instant and the queue refills at once.
func retryAfter(depth int) string {
	secs := 1 + depth/4
	if secs > 30 {
		secs = 30
	}
	return fmt.Sprintf("%d", secs)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// runServe starts the fleet as a long-lived HTTP service. SIGINT drains
// gracefully: admission stops, in-flight jobs finish (bounded by
// -drain), then the pool shuts down.
func runServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	speeds := fs.String("speeds", "1,2,3,4", "comma-separated worker speeds")
	rate := fs.Float64("rate", 3e4, "cells/s per unit speed")
	bandwidth := fs.Float64("bandwidth", 0, "master link elems/s (0 = unthrottled)")
	policy := fs.String("policy", "srpt", "scheduling policy: fifo, srpt or ii")
	queue := fs.Int("queue", 64, "max unfinished jobs fleet-wide")
	quota := fs.Int("quota", 32, "max unfinished jobs per tenant")
	autoscale := fs.Float64("autoscale", 0, "capacity-model autoscaler theta: cap each job's slice at the predicted speedup knee (0 = off)")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGINT")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: nlfl serve [flags]\n\nPOST /jobs accepts n ≤ %d and request bodies ≤ %d bytes; larger requests get a 400.\n\n",
			maxServeN, maxSubmitBytes)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := parseFloats(*speeds)
	if err != nil {
		return err
	}
	fleet, err := service.New(service.Config{
		Speeds:         sp,
		WorkPerSecond:  *rate,
		Link:           nrt.Link{ElemsPerSecond: *bandwidth},
		Policy:         service.Policy(*policy),
		MaxQueue:       *queue,
		TenantQuota:    *quota,
		AutoscaleTheta: *autoscale,
	})
	if err != nil {
		return err
	}
	st := &serveState{fleet: fleet, jobs: map[int64]*service.JobHandle{}}
	srv := &http.Server{Handler: newServeMux(st), ReadHeaderTimeout: serveReadHeaderTimeout}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fleet.Close()
		return err
	}
	fmt.Printf("nlfl serve: fleet of %d workers (%s policy) on http://%s\n",
		fleet.Workers(), *policy, ln.Addr())
	fmt.Println("  POST /jobs      {\"tenant\":\"a\",\"n\":64,\"strategy\":\"het\"} → {\"id\":…}")
	fmt.Printf("                  n ≤ %d, body ≤ %d bytes (400 otherwise)\n", maxServeN, maxSubmitBytes)
	fmt.Println("  GET  /jobs?id=N job status and ledger")
	fmt.Println("  GET  /accounts  fleet + per-tenant accounting")
	fmt.Println("  GET  /healthz   worker health (strikes, quarantine)")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fleet.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("nlfl serve: draining…")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := fleet.Drain(dctx); err != nil {
		fmt.Printf("nlfl serve: drain incomplete: %v\n", err)
	}
	fleet.Close()
	_ = srv.Shutdown(context.Background())
	acc := fleet.Accounting()
	fmt.Printf("nlfl serve: done — %d submitted, %d completed, %d failed, %d rejected\n",
		acc.Submitted, acc.Completed, acc.Failed, acc.Rejected)
	return nil
}
