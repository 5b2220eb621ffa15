package serve

// Prefill:decode ratio scaling for disaggregated deployments: the same
// control-loop discipline as RunAutoscaled, applied to the one knob a
// fixed-size disaggregated fleet has — how many of its replica slots run
// prefill versus decode. Total GPU count stays constant (this is a
// re-partitioning problem, not a capacity problem): a conversion drains
// one replica of the shrinking pool, waits out the provisioning delay
// (weight re-load, role switch), then boots a fresh replica of the
// growing pool on the same slot. The KV-handoff fabric is partitioned
// once over all slots, so a converted slot keeps its lanes and transfer
// pricing stays honest across role changes.

import (
	"fmt"
	"math"

	"mscclpp/internal/sim"
)

// RatioSignals is one control-loop sample of a disaggregated fleet — the
// view a RatioPolicy decides from.
type RatioSignals struct {
	// TimeNs is the sampling instant.
	TimeNs sim.Time `json:"time_ns"`
	// Slots is the fixed total replica-slot count.
	Slots int `json:"slots"`
	// PrefillReplicas and DecodeReplicas count active (routable) replicas
	// per pool; Converting counts slots mid-conversion (draining or
	// rebooting into their new role).
	PrefillReplicas int `json:"prefill_replicas"`
	DecodeReplicas  int `json:"decode_replicas"`
	Converting      int `json:"converting,omitempty"`
	// PrefillQueued/DecodeQueued sum the pools' admission queues;
	// PrefillTokens/DecodeTokens their token-weighted outstanding work
	// (decode includes handoffs still on the wire).
	PrefillQueued int   `json:"prefill_queued,omitempty"`
	DecodeQueued  int   `json:"decode_queued,omitempty"`
	PrefillTokens int64 `json:"prefill_tokens,omitempty"`
	DecodeTokens  int64 `json:"decode_tokens,omitempty"`
}

// RatioPolicy maps a signal sample to the desired prefill-pool size. The
// driver clamps the decision to [1, Slots-1] — both pools always keep at
// least one replica — and actuates at most one slot conversion at a time.
type RatioPolicy interface {
	// Name is the stable policy identifier used in reports.
	Name() string
	// DesiredPrefill returns how many slots the policy wants running
	// prefill. Called in engine context once per control interval.
	DesiredPrefill(sig RatioSignals) int
}

// staticRatio holds the prefill pool at a fixed size.
type staticRatio struct{ n int }

// NewStaticRatio returns the static baseline ratio policy: the prefill
// pool is held at n slots regardless of load (n <= 0 pins to half the
// slots).
func NewStaticRatio(n int) RatioPolicy { return &staticRatio{n: n} }

func (*staticRatio) Name() string { return "static-ratio" }

func (p *staticRatio) DesiredPrefill(sig RatioSignals) int {
	if p.n > 0 {
		return p.n
	}
	return sig.Slots / 2
}

// backlogRatio splits slots proportionally to token backlog.
type backlogRatio struct{}

// NewBacklogRatio returns the backlog-proportional ratio policy: slots
// are split in proportion to each pool's token-weighted outstanding work,
// so a prompt-heavy phase pulls slots into prefill and a decode-heavy
// tail releases them. It is a deliberately simple heuristic — the pools'
// service rates differ, so proportional is not optimal — but it moves the
// ratio in the right direction and is cheap to reason about.
func NewBacklogRatio() RatioPolicy { return backlogRatio{} }

func (backlogRatio) Name() string { return "backlog-ratio" }

func (backlogRatio) DesiredPrefill(sig RatioSignals) int {
	tot := sig.PrefillTokens + sig.DecodeTokens
	if tot <= 0 {
		return sig.PrefillReplicas
	}
	raw := float64(sig.Slots) * float64(sig.PrefillTokens) / float64(tot)
	return int(math.Round(raw))
}

// DisaggScaleConfig parameterizes a ratio-scaled disaggregated run.
type DisaggScaleConfig struct {
	// Slots is the fixed total replica-slot count (prefill + decode).
	// Must be >= 2; each slot owns one per-replica environment's GPUs.
	Slots int
	// InitialPrefill is how many slots start as prefill replicas.
	// Defaults to Slots/2 (at least 1). Must stay in [1, Slots-1].
	InitialPrefill int
	// Replica configures every replica engine either pool ever runs.
	Replica Config
	// Policy decides the prefill-pool size each interval. Defaults to
	// NewBacklogRatio(). Must be fresh.
	Policy RatioPolicy
	// PrefillPolicy routes arrivals over the active prefill pool;
	// DecodePolicy places finished prefills. Both default to JSQ and must
	// be fresh instances.
	PrefillPolicy Policy
	DecodePolicy  Policy
	// Interval is the control-loop period (default 15 s); ProvisionDelay
	// the role-switch reboot time after a conversion drain (default 30 s).
	Interval       sim.Duration
	ProvisionDelay sim.Duration
}

// RatioEvent is one entry of the ratio timeline: a slot transition and
// the pool composition right after it.
type RatioEvent struct {
	TimeNs sim.Time `json:"time_ns"`
	// Event is the transition: convert (drain begins), reboot (drain
	// finished, role switch under way), activate (new role admits), abort
	// (reboot finished into an already-closed pool), retire (end-of-run
	// drain), close-prefill, close-decode.
	Event string `json:"event"`
	// Slot is the slot the transition applies to (-1 for pool closes).
	Slot int `json:"slot"`
	// Prefill/Decode count active replicas per pool after the transition;
	// Converting counts slots mid-conversion.
	Prefill    int `json:"prefill"`
	Decode     int `json:"decode"`
	Converting int `json:"converting,omitempty"`
}

// RatioScaleResult is the outcome of one ratio-scaled disaggregated run.
type RatioScaleResult struct {
	// Policy names the ratio policy; PrefillPolicy/DecodePolicy the
	// routing and placement policies.
	Policy        string `json:"policy"`
	PrefillPolicy string `json:"prefill_policy"`
	DecodePolicy  string `json:"decode_policy"`
	// Results holds one Result per replica engine ever booted (slot
	// conversions boot fresh engines), in boot order; Merged pools them.
	Results []*Result `json:"results"`
	Merged  *Result   `json:"merged"`
	// Fleet is the ratio timeline; Samples the control-loop inputs;
	// Conversions counts completed slot conversions.
	Fleet       []RatioEvent   `json:"fleet"`
	Samples     []RatioSignals `json:"samples,omitempty"`
	Conversions int            `json:"conversions"`
	// KV-handoff accounting, as in DisaggResult.
	Handoffs      int          `json:"handoffs"`
	HandoffBytes  int64        `json:"handoff_bytes"`
	HandoffMeanNs sim.Duration `json:"handoff_mean_ns"`
	HandoffMaxNs  sim.Duration `json:"handoff_max_ns"`
}

// Summarize aggregates the cluster-level (merged) result under an SLO.
func (r *RatioScaleResult) Summarize(slo SLO) Summary { return r.Merged.Summarize(slo) }

// RunAutoscaledDisagg replays the workload against a disaggregated
// deployment whose prefill:decode split is re-balanced by a control loop:
// every Interval the loop samples both pools' queue and backlog signals
// and, when the RatioPolicy wants a different split, converts one slot —
// drain the shrinking pool's least-loaded replica (its never-admitted
// requests re-route inside the pool), wait ProvisionDelay, boot the
// grown pool's replacement on the same slot and fabric group. At most
// one conversion is in flight at a time, and both pools always keep at
// least one active replica, so arrivals and handoffs always have a
// destination. Deterministic and bit-stable like every other driver.
func RunAutoscaledDisagg(dc DisaggScaleConfig, wl Workload) (*RatioScaleResult, error) {
	slots := dc.Slots
	if slots < 2 {
		return nil, fmt.Errorf("serve: DisaggScaleConfig.Slots = %d (need >= 2)", slots)
	}
	initP := dc.InitialPrefill
	if initP == 0 {
		initP = slots / 2
	}
	if initP < 1 || initP > slots-1 {
		return nil, fmt.Errorf("serve: DisaggScaleConfig.InitialPrefill = %d of %d slots", initP, slots)
	}
	pol := dc.Policy
	if pol == nil {
		pol = NewBacklogRatio()
	}
	ppol, dpol := orJSQ(dc.PrefillPolicy), orJSQ(dc.DecodePolicy)
	interval, delay, err := controlTiming(dc.Interval, dc.ProvisionDelay)
	if err != nil {
		return nil, err
	}
	d, err := newDeployment(dc.Replica, wl, ppol)
	if err != nil {
		return nil, err
	}
	if err := d.disaggregate(slots, dpol); err != nil {
		return nil, err
	}
	d.delay = delay
	d.name = func(sl *slot) string {
		pool := "prefill"
		if sl.role == roleDecode {
			pool = "decode"
		}
		return fmt.Sprintf("%s-slot%d-g%d", pool, sl.id, sl.gen)
	}

	out := &RatioScaleResult{Policy: pol.Name(), PrefillPolicy: ppol.Name(), DecodePolicy: dpol.Name()}
	// Every slot mid-conversion is draining or provisioning: the ratio
	// scaler never cancels a boot.
	converting := func() int {
		p, dr := d.census()
		return p + dr
	}
	d.note = func(now sim.Time, ev string, sl *slot) {
		id := -1
		if sl != nil {
			id = sl.id
		}
		if ev == "activate" {
			out.Conversions++
		}
		out.Fleet = append(out.Fleet, RatioEvent{TimeNs: now, Event: ev, Slot: id,
			Prefill: len(d.pools[rolePrefill]), Decode: len(d.pools[roleDecode]), Converting: converting()})
	}

	control := func(now sim.Time) {
		sig := RatioSignals{TimeNs: now, Slots: slots, Converting: converting(),
			PrefillReplicas: len(d.pools[rolePrefill]), DecodeReplicas: len(d.pools[roleDecode])}
		for _, s := range d.pools[rolePrefill] {
			sig.PrefillQueued += s.QueuedRequests()
			sig.PrefillTokens += s.InFlightTokens()
		}
		for _, s := range d.pools[roleDecode] {
			sig.DecodeQueued += s.QueuedRequests()
			sig.DecodeTokens += s.InFlightTokens()
		}
		out.Samples = append(out.Samples, sig)
		if sig.Converting > 0 {
			return
		}
		desired := clampReplicas(pol.DesiredPrefill(sig), 1, slots-1)
		curP := 0
		for _, sl := range d.slots {
			if sl.state != slotRetired && sl.target == rolePrefill {
				curP++
			}
		}
		if desired > curP {
			d.drain(roleDecode, rolePrefill)
		} else if desired < curP {
			d.drain(rolePrefill, roleDecode)
		}
	}

	for i := 0; i < slots; i++ {
		ro := roleDecode
		if i < initP {
			ro = rolePrefill
		}
		if err := d.add(i, ro); err != nil {
			return nil, err
		}
	}
	if err := d.run(interval, control); err != nil {
		return nil, err
	}
	out.Results = d.results()
	out.Merged = d.merge(out.Results)
	out.Handoffs, out.HandoffBytes, out.HandoffMeanNs, out.HandoffMaxNs = d.kv.n, d.kv.bytes, d.kv.mean(), d.kv.max
	return out, nil
}
