package serve

// The multi-replica router: N independent replica engines — each a full
// continuous-batching Scheduler over its own simulated cluster — behind an
// arrival-splitting routing policy, all inside one discrete-event engine.
// This is the layer where cluster-scale serving is decided: at equal
// offered load, tail latency and goodput are set by how arrivals are
// split, not just by how fast one replica's kernels and collectives run.
//
// Everything stays deterministic: arrivals are engine events in workload
// order, each policy decision is a pure function of the engine state at
// the arrival instant, and replica event interleavings follow the
// engine's total (time, FIFO) order — so routed results are bit-stable
// and golden-gated like every other artifact.

import "fmt"

// RouterConfig parameterizes a routed multi-replica simulation.
type RouterConfig struct {
	// Replicas is the number of independent replica engines. Must be >= 1.
	Replicas int
	// Policy splits arrivals across replicas. Defaults to round-robin.
	// The instance must be fresh (policies carry routing state).
	Policy Policy
	// Replica configures every replica engine; each gets its own
	// Scheduler, KV budget and metrics over this shared configuration.
	Replica Config
}

// RoutedResult is the outcome of one routed simulation: the per-replica
// results in replica order, and their merge (MergeResults) as the
// cluster-level view.
type RoutedResult struct {
	Policy     string    `json:"policy"`
	PerReplica []*Result `json:"per_replica"`
	Merged     *Result   `json:"merged"`
}

// Summarize aggregates the cluster-level (merged) result under an SLO.
func (r *RoutedResult) Summarize(slo SLO) Summary { return r.Merged.Summarize(slo) }

// RunRouted replays the workload against Replicas independent replica
// engines behind the routing policy and returns per-replica and merged
// metrics. Each arrival is an engine event that asks the policy for a
// replica index (with every replica's live queue state visible) and
// submits the request there; replicas then run their continuous-batching
// schedules side by side in one virtual timeline.
func RunRouted(rc RouterConfig, wl Workload) (*RoutedResult, error) {
	if rc.Replicas < 1 {
		return nil, fmt.Errorf("serve: RouterConfig.Replicas = %d", rc.Replicas)
	}
	pol := rc.Policy
	if pol == nil {
		pol = NewRoundRobin()
	}
	d, err := newDeployment(rc.Replica, wl, pol)
	if err != nil {
		return nil, err
	}
	d.name = replicaName
	for i := 0; i < rc.Replicas; i++ {
		if err := d.add(i, roleUnified); err != nil {
			return nil, err
		}
	}
	if err := d.run(0, nil); err != nil {
		return nil, err
	}
	out := &RoutedResult{Policy: pol.Name(), PerReplica: d.results()}
	out.Merged = d.merge(out.PerReplica)
	return out, nil
}

// replicaName names the replica of slot sl in a unified fleet.
func replicaName(sl *slot) string { return fmt.Sprintf("replica-%d", sl.id) }
