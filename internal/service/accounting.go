package service

import "sort"

// TenantAccount is one tenant's running account. The fleet keeps one
// per tenant under fleet.mu and Accounting returns copies. Volumes
// settle at job finalize, so they always describe *finished* jobs;
// ServedCells additionally accrues at every commit, so fair-share
// ordering sees in-flight service too.
type TenantAccount struct {
	Tenant    string
	Submitted int
	Admitted  int
	Rejected  int
	Completed int
	Failed    int
	Cancelled int

	ServedCells     float64
	PlanVolume      float64
	ReplannedVolume float64
	DataShipped     float64
	CommittedVolume float64
	WastedData      float64
	ReclaimedCells  int
	RetriedChunks   int
	SpeculativeWins int
	DegradedEvents  int
}

// settle folds a finished job's ledger into the tenant account.
func (t *TenantAccount) settle(r *JobReport) {
	t.PlanVolume += r.PlanVolume
	t.ReplannedVolume += r.ReplannedVolume
	t.DataShipped += r.DataShipped
	t.CommittedVolume += r.CommittedVolume
	t.WastedData += r.WastedData
	t.ReclaimedCells += r.ReclaimedCells
	t.RetriedChunks += r.RetriedChunks
	t.SpeculativeWins += r.SpeculativeWins
	t.DegradedEvents += r.DegradedWorkers
}

// FleetReport is a whole-fleet accounting snapshot.
type FleetReport struct {
	Workers       int
	Policy        Policy
	ActiveJobs    int
	Submitted     int
	Rejected      int
	Completed     int
	Failed        int
	Cancelled     int
	Quarantined   []int
	Tenants       []TenantAccount
	UptimeSeconds float64
}

// Accounting returns the fleet snapshot, tenants sorted by name.
func (f *Fleet) Accounting() FleetReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := FleetReport{
		Workers:       len(f.speeds),
		Policy:        f.cfg.Policy,
		ActiveJobs:    len(f.active),
		Submitted:     f.submitted,
		Rejected:      f.rejected,
		Completed:     f.completed,
		Failed:        f.failed,
		Cancelled:     f.cancelledJobs,
		UptimeSeconds: f.now(),
	}
	for w := range f.health {
		if f.health[w].quarantined {
			rep.Quarantined = append(rep.Quarantined, w)
		}
	}
	names := make([]string, 0, len(f.accounts))
	for name := range f.accounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.Tenants = append(rep.Tenants, *f.accounts[name])
	}
	return rep
}
