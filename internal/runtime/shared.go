package runtime

// Window is one booked transfer window on one topology edge, in
// live-clock seconds.
type Window struct {
	// Edge is the topology edge id the window occupies (-1 on a
	// disabled or unconstrained booking).
	Edge       int
	Start, End float64
}

// Network is the topology-aware booker: transfers book non-overlapping
// windows on every capped edge of the worker's route — circuit style for
// star and two-source networks, hop-by-hop for chains. A single Run owns
// one; a fleet shares one across every job's executor.
type Network struct {
	nl    *netLink
	topo  Topology
	clock func() float64
}

// NewNetwork builds the booking state for topo over `workers` workers;
// now supplies the live clock in seconds. A nil topology — or one whose
// routes have no capped edge — yields a network whose Book windows are
// instant. A malformed topology is an error.
func NewNetwork(topo Topology, workers int, now func() float64) (*Network, error) {
	if topo != nil {
		if err := topo.Validate(workers); err != nil {
			return nil, err
		}
	}
	return &Network{nl: newNetLink(topo, workers, now), topo: topo, clock: now}, nil
}

// Topology returns the modeled topology (nil when no edge is capped).
func (n *Network) Topology() Topology {
	if n.nl == nil {
		return nil
	}
	return n.topo
}

// Capacity returns the star aggregate shared-port rate, preserving the
// legacy LinkCapacity semantics; for non-star topologies — where no
// single aggregate figure is meaningful — it returns 0 and callers
// should consult Edges instead.
func (n *Network) Capacity() float64 {
	if n.nl == nil {
		return 0
	}
	if st, ok := n.topo.(Star); ok && st.Aggregate > 0 {
		return st.Aggregate
	}
	return 0
}

// Book reserves the transfer windows of elems elements for worker w: the
// delivery window plus any intermediate relay windows (hop order; empty
// for circuit routes). It never sleeps. On a disabled network or an
// unconstrained worker the delivery window is [now, now] on edge −1.
func (n *Network) Book(w int, elems float64) (delivery Window, relays []Window) {
	if n.nl == nil || !n.nl.constrained(w) {
		t := n.clock()
		return Window{Edge: -1, Start: t, End: t}, nil
	}
	del, rel := n.nl.book(w, elems, 1)
	out := make([]Window, len(rel))
	for i, r := range rel {
		out[i] = Window{Edge: r.edge, Start: r.start, End: r.end}
	}
	return Window{Edge: del.edge, Start: del.start, End: del.end}, out
}

// EdgeReports returns the per-edge measured traffic for a run of the
// given makespan (nil when disabled).
func (n *Network) EdgeReports(makespan float64) []EdgeReport {
	if n.nl == nil {
		return nil
	}
	return n.nl.edgeReports(makespan)
}

// SpanRoutes returns trace.Expect.Routes for the network: per worker,
// the edge ids its delivery Comm spans occupy (nil when disabled).
func (n *Network) SpanRoutes() [][]int {
	if n.nl == nil {
		return nil
	}
	return n.nl.spanRoutes()
}
