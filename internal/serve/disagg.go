package serve

// Disaggregated prefill/decode serving: prompt processing runs on a
// dedicated pool of prefill replicas, token generation on a separate pool
// of decode replicas, and every finished prefill hands its KV cache to a
// decode replica over the cluster fabric before decode can begin. The
// handoff is priced honestly with internal/fabric's occupancy models —
// every tensor-parallel rank ships its KV shard over its own DMA engine or
// RDMA NIC, and concurrent handoffs queue on those resources — so the
// crossover against chunked prefill (the unified Scheduler) reflects the
// interconnect, not a free teleport.
//
// The lifecycle of one request:
//
//	arrival --PrefillPolicy--> prefill replica (chunked prefill only)
//	       prefill completes: first token emitted (TTFT), KV stays pinned
//	       --DecodePolicy--> KV handoff over the fabric (KVLink.Transfer)
//	       handoff completes: prefill KV released, decode pool admits
//	       decode replica generates tokens 2..OutputLen (pure decode)
//
// Decode iterations on the decode pool overlap with in-flight handoffs by
// construction: a transfer is an engine event, not scheduler work, so a
// decode replica keeps batching while KV for its next requests is still on
// the wire.

import (
	"fmt"

	"mscclpp/internal/fabric"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

// KVLink prices KV-cache handoffs between replicas over one shared
// interconnect model. The fabric's GPUs are partitioned into equal
// per-replica groups; a transfer from replica src to replica dst moves one
// KV shard per GPU lane in parallel (rank g of src to rank g of dst), each
// lane over the DMA engine when the two ranks share a node and over the
// RDMA NICs otherwise. Lanes are real fabric.Fabric resources, so
// back-to-back handoffs from one replica serialize on its NICs — the
// congestion a disaggregated deployment actually pays.
type KVLink struct {
	fab     *fabric.Fabric
	gpusPer int // GPU lanes per replica group
	groups  int
}

// NewKVLink builds a handoff fabric over env, partitioned into `replicas`
// equal GPU groups: replica r owns GPUs [r*G, (r+1)*G) with
// G = env.TotalGPUs()/replicas. env must validate and divide evenly.
func NewKVLink(env *topology.Env, replicas int) (*KVLink, error) {
	if replicas < 2 {
		return nil, fmt.Errorf("serve: KVLink needs >= 2 replica groups, got %d", replicas)
	}
	if err := env.Validate(); err != nil {
		return nil, fmt.Errorf("serve: KVLink env: %w", err)
	}
	if env.TotalGPUs()%replicas != 0 {
		return nil, fmt.Errorf("serve: KVLink cannot split %d GPUs into %d replica groups", env.TotalGPUs(), replicas)
	}
	return &KVLink{
		fab:     fabric.New(env, timing.Default(env)),
		gpusPer: env.TotalGPUs() / replicas,
		groups:  replicas,
	}, nil
}

// Transfer schedules a KV handoff of shardBytes per GPU lane from replica
// group src to replica group dst starting at now, and returns the time the
// last lane's shard is fully resident at the destination. Lane transfers
// occupy the fabric's DMA engines (same-node lanes) or RDMA NICs
// (cross-node lanes); a lane whose resources are busy with an earlier
// handoff waits its turn, which is how transfer pricing stays honest under
// bursts of simultaneous prefill completions.
func (l *KVLink) Transfer(now sim.Time, src, dst int, shardBytes int64) sim.Time {
	if src == dst || src < 0 || dst < 0 || src >= l.groups || dst >= l.groups {
		panic(fmt.Sprintf("serve: KVLink.Transfer(%d -> %d) with %d groups", src, dst, l.groups))
	}
	end := now
	for g := 0; g < l.gpusPer; g++ {
		s := src*l.gpusPer + g
		d := dst*l.gpusPer + g
		var e sim.Time
		if l.fab.SameNode(s, d) {
			e = l.fab.DMA(now, s, d, shardBytes)
		} else {
			e = l.fab.RDMA(now, s, d, shardBytes)
		}
		if e > end {
			end = e
		}
	}
	return end
}

// DisaggConfig parameterizes a disaggregated prefill/decode simulation.
type DisaggConfig struct {
	// PrefillReplicas and DecodeReplicas size the two pools — the
	// pool-sizing knob the serve-disagg scenario sweeps. Both must be
	// >= 1; the deployment occupies (PrefillReplicas+DecodeReplicas) times
	// the per-replica GPU count, which is what an equal-GPU comparison
	// against RunRouted must hold constant.
	PrefillReplicas int
	DecodeReplicas  int
	// Replica configures every replica engine in both pools (same model,
	// chunk budget and KV capacity on each side).
	Replica Config
	// PrefillPolicy splits arrivals across the prefill pool; defaults to
	// token-weighted JSQ. The instance must be fresh (policies are
	// stateful).
	PrefillPolicy Policy
	// DecodePolicy places each finished prefill on a decode replica at
	// handoff time; defaults to token-weighted JSQ. Must be fresh.
	DecodePolicy Policy
}

// DisaggResult is the outcome of one disaggregated simulation: per-replica
// results for both pools, their merge as the cluster-level view, and the
// KV-handoff accounting.
type DisaggResult struct {
	PrefillPolicy string `json:"prefill_policy"`
	DecodePolicy  string `json:"decode_policy"`
	// PerPrefill holds one Result per prefill replica. Prefill replicas
	// record per-request rows only for one-token requests (which never
	// visit the decode pool); their Iterations and Makespan still count.
	PerPrefill []*Result `json:"per_prefill"`
	// PerDecode holds one Result per decode replica, with the full
	// lifecycle rows of every multi-token request it finished.
	PerDecode []*Result `json:"per_decode"`
	// Merged pools every replica of both pools (MergeResults).
	Merged *Result `json:"merged"`

	// Handoffs counts KV transfers; HandoffBytes sums bytes on the wire
	// (per-GPU shard times the tensor-parallel lane count, over all
	// handoffs); HandoffMeanNs/HandoffMaxNs aggregate transfer durations
	// including fabric occupancy waits.
	Handoffs      int          `json:"handoffs"`
	HandoffBytes  int64        `json:"handoff_bytes"`
	HandoffMeanNs sim.Duration `json:"handoff_mean_ns"`
	HandoffMaxNs  sim.Duration `json:"handoff_max_ns"`
}

// Summarize aggregates the cluster-level (merged) result under an SLO.
func (r *DisaggResult) Summarize(slo SLO) Summary { return r.Merged.Summarize(slo) }

// RunDisaggregated replays the workload against a disaggregated
// prefill/decode deployment and returns per-pool and merged metrics.
// Arrivals are routed across the prefill pool by PrefillPolicy; each
// prefill completion picks a decode replica with DecodePolicy, prices the
// KV-cache handoff on the shared fabric (KVLink), keeps the prefill-side
// KV pinned until the transfer ends, and only then lets the decode replica
// admit the request — all inside one discrete-event timeline, so decode
// batching overlaps in-flight transfers and results are bit-stable.
func RunDisaggregated(dc DisaggConfig, wl Workload) (*DisaggResult, error) {
	nP, nD := dc.PrefillReplicas, dc.DecodeReplicas
	if nP < 1 || nD < 1 {
		return nil, fmt.Errorf("serve: DisaggConfig pools %d prefill / %d decode (both must be >= 1)", nP, nD)
	}
	ppol, dpol := orJSQ(dc.PrefillPolicy), orJSQ(dc.DecodePolicy)
	d, err := newDeployment(dc.Replica, wl, ppol)
	if err != nil {
		return nil, err
	}
	// Fabric group i in [0, nP) is prefill replica i, group nP+j decode
	// replica j.
	if err := d.disaggregate(nP+nD, dpol); err != nil {
		return nil, err
	}
	d.name = func(sl *slot) string {
		if sl.role == rolePrefill {
			return fmt.Sprintf("prefill-%d", sl.id)
		}
		return fmt.Sprintf("decode-%d", sl.id-nP)
	}
	for j := 0; j < nD; j++ {
		if err := d.add(nP+j, roleDecode); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nP; i++ {
		if err := d.add(i, rolePrefill); err != nil {
			return nil, err
		}
	}
	if err := d.run(0, nil); err != nil {
		return nil, err
	}
	out := &DisaggResult{
		PrefillPolicy: ppol.Name(),
		DecodePolicy:  dpol.Name(),
		PerPrefill:    d.results(rolePrefill),
		PerDecode:     d.results(roleDecode),
		Handoffs:      d.kv.n,
		HandoffBytes:  d.kv.bytes,
		HandoffMeanNs: d.kv.mean(),
		HandoffMaxNs:  d.kv.max,
	}
	out.Merged = d.merge(append(append([]*Result{}, out.PerPrefill...), out.PerDecode...))
	return out, nil
}

// orJSQ returns p, or the token-weighted JSQ default when p is nil.
func orJSQ(p Policy) Policy {
	if p == nil {
		return NewJSQ()
	}
	return p
}
