package serve

// SLO-driven autoscaling: a control-plane loop that runs inside the same
// discrete-event timeline as the replica fleet it scales. Every Interval
// of virtual time the loop samples fleet signals — queue depth, in-flight
// tokens, windowed gpu-counter utilization, windowed SLO attainment from
// the streaming accumulators — hands them to a pluggable ScalePolicy, and
// actuates the difference:
//
//	sample --> ScalePolicy.Desired --> clamp [Min, Max] --> actuate
//
//	scale-up:   a fresh Scheduler is provisioned now but joins the
//	            routable set only ProvisionDelay later (boot, weight
//	            load). Until then it counts as capacity-in-flight, so the
//	            policy is not asked again for replicas it already bought.
//	scale-down: capacity still provisioning is canceled first (cheapest);
//	            then the least-loaded active replica is drained — it stops
//	            admitting, hands its never-admitted queue back to the
//	            router, finishes its residents, and retires.
//
// Every decision is a pure function of engine state at the sampling
// instant, so autoscaled runs are bit-stable and golden-gated like every
// other artifact. The driver also keeps the economics ledger: each
// replica's provision-to-retire lifetime is billed at GPUHourPrice, and
// EconReport derives goodput-per-GPU-hour and cost-per-million-tokens
// from the merged (sketch-pooled) metrics.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mscclpp/internal/sim"
)

// ScaleSignals is one control-loop sample of fleet state — the only view
// of the world a ScalePolicy gets.
type ScaleSignals struct {
	// TimeNs is the sampling instant.
	TimeNs sim.Time `json:"time_ns"`
	// Active, Provisioning and Draining count replicas by lifecycle state
	// at the sampling instant (canceled provisioning slots excluded).
	Active       int `json:"active"`
	Provisioning int `json:"provisioning,omitempty"`
	Draining     int `json:"draining,omitempty"`
	// Min and Max are the fleet bounds the driver clamps decisions to;
	// policies may use them (the static baseline pins to Max).
	Min int `json:"min"`
	Max int `json:"max"`
	// QueuedRequests and InFlightTokens sum the active replicas' admission
	// queues and token-weighted outstanding work.
	QueuedRequests int   `json:"queued_requests,omitempty"`
	InFlightTokens int64 `json:"inflight_tokens,omitempty"`
	// Utilization is the active fleet's busy fraction over the window
	// since the previous sample: the gpu-counter busy-time delta divided
	// by window x active replicas. It can briefly exceed 1 because an
	// iteration books its full duration when it is formed.
	Utilization float64 `json:"utilization"`
	// Attainment is the fraction of requests completed in the window that
	// met their tier's SLO (1 when nothing completed); Completed is the
	// window's completion count.
	Attainment float64 `json:"attainment"`
	Completed  int64   `json:"completed,omitempty"`
}

// ScalePolicy maps a signal sample to the desired active-replica count.
// An instance is stateful (the PID controller integrates across samples)
// and bound to one RunAutoscaled call — construct a fresh one per run.
// The driver clamps the returned value to [Min, Max], so policies may
// return out-of-range or extreme values without breaking the fleet.
type ScalePolicy interface {
	// Name is the stable policy identifier used in reports and CLI flags.
	Name() string
	// Desired returns the replica count the policy wants active. Called in
	// engine context once per control interval; must be a deterministic
	// function of the sample sequence.
	Desired(sig ScaleSignals) int
}

// clampReplicas bounds a policy decision to a sane fleet size: min is
// floored at 1, max at min, and n is clamped into [min, max].
func clampReplicas(n, min, max int) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if n < min {
		return min
	}
	if n > max {
		return max
	}
	return n
}

// staticScale holds the fleet at a fixed size.
type staticScale struct{ n int }

// NewStaticScale returns the static baseline policy: the fleet is held at
// n replicas regardless of load. With n <= 0 it pins to the fleet maximum
// — static peak provisioning, the baseline an autoscaler's GPU-hour
// savings are measured against.
func NewStaticScale(n int) ScalePolicy { return &staticScale{n: n} }

func (*staticScale) Name() string { return "static" }

func (p *staticScale) Desired(sig ScaleSignals) int {
	if p.n > 0 {
		return p.n
	}
	return sig.Max
}

// targetUtil sizes the fleet so measured utilization lands on a target.
type targetUtil struct{ target float64 }

// NewTargetUtilization returns the target-utilization policy: the fleet
// is resized so the measured busy fraction lands on the target —
// desired = ceil(active x utilization / target) — the classic
// CPU-utilization autoscaling rule applied to the gpu-counter signal.
// It never scales down while requests are queued (a backlog means the
// sampled utilization understates demand). target outside (0, 1] falls
// back to 0.70.
func NewTargetUtilization(target float64) ScalePolicy {
	if math.IsNaN(target) || target <= 0 || target > 1 {
		target = 0.70
	}
	return &targetUtil{target: target}
}

func (*targetUtil) Name() string { return "target-util" }

func (p *targetUtil) Desired(sig ScaleSignals) int {
	util := sig.Utilization
	if math.IsNaN(util) || math.IsInf(util, 0) || util < 0 {
		return sig.Active
	}
	raw := float64(sig.Active) * util / p.target
	if sig.QueuedRequests > 0 && raw < float64(sig.Active) {
		raw = float64(sig.Active)
	}
	// Bound before the int conversion: a fuzzer-grade utilization value
	// must clamp, not overflow.
	if lim := float64(sig.Max); sig.Max > 0 && raw > lim {
		raw = lim
	}
	if raw < 0 || math.IsNaN(raw) {
		raw = 0
	}
	return int(math.Ceil(raw))
}

// sloPID trades fleet size against windowed SLO attainment.
type sloPID struct {
	floor, kp, ki float64
	integ         float64
}

// sloPIDShedCeil is the projected-utilization ceiling of the controller's
// scale-down guard: a shed that would push the survivors' busy fraction
// past this is refused, so a fully attaining fleet at peak load is not
// chattered down into an outage.
const sloPIDShedCeil = 0.75

// NewSLOPID returns the SLO-attainment PI controller: the error term is
// floor minus the window's attainment, so missing the objective pushes
// the fleet up hard (proportional term) while sustained perfect
// attainment accumulates gentle downscale pressure (integral term,
// anti-windup clamped). Actuation is asymmetric, the standard production
// rule: scale-up is unbounded (an outage is expensive), scale-down is at
// most one replica per interval and only when the survivors' projected
// utilization stays under sloPIDShedCeil with an empty admission queue —
// attainment is a lagging, completion-time signal, so without the guard
// a perfectly attaining fleet at peak load would shed straight into a
// backlog it then needs several boot delays to clear. Non-positive
// arguments select the defaults: floor 0.95, kp 10, ki 2. The policy
// reads attainment, so the replica Config must set SLO/TierSLOs — with
// no objectives every completion "meets SLO" and the controller sheds to
// the minimum.
func NewSLOPID(floor, kp, ki float64) ScalePolicy {
	if math.IsNaN(floor) || floor <= 0 || floor > 1 {
		floor = 0.95
	}
	if math.IsNaN(kp) || kp <= 0 {
		kp = 10
	}
	if math.IsNaN(ki) || ki <= 0 {
		ki = 2
	}
	return &sloPID{floor: floor, kp: kp, ki: ki}
}

func (*sloPID) Name() string { return "slo-pid" }

func (p *sloPID) Desired(sig ScaleSignals) int {
	att := sig.Attainment
	if math.IsNaN(att) || math.IsInf(att, 0) {
		return sig.Active
	}
	if att < 0 {
		att = 0
	}
	if att > 1 {
		att = 1
	}
	err := p.floor - att
	p.integ += err
	// Anti-windup: bound the integral so sustained perfect attainment
	// cannot bank more than steady downscale pressure, and a long outage
	// cannot demand an unbounded fleet once attainment recovers.
	const imax = 1.0
	if p.integ > imax {
		p.integ = imax
	}
	if p.integ < -imax {
		p.integ = -imax
	}
	delta := int(math.Round(p.kp*err + p.ki*p.integ))
	if delta >= 0 {
		return sig.Active + delta
	}
	// Scale-down: rate-limited and guarded.
	if sig.Active <= 1 || sig.QueuedRequests > 0 {
		return sig.Active
	}
	util := sig.Utilization
	if math.IsNaN(util) || math.IsInf(util, 0) || util < 0 {
		return sig.Active
	}
	if util*float64(sig.Active)/float64(sig.Active-1) > sloPIDShedCeil {
		return sig.Active
	}
	return sig.Active - 1
}

// scalePolicyFactories maps CLI/scenario names to constructors with
// default parameters, mirroring policyFactories for routing policies.
var scalePolicyFactories = map[string]func() ScalePolicy{
	"static":      func() ScalePolicy { return NewStaticScale(0) },
	"target-util": func() ScalePolicy { return NewTargetUtilization(0) },
	"slo-pid":     func() ScalePolicy { return NewSLOPID(0, 0, 0) },
}

// ScalePolicyByName constructs a fresh default-parameter scale policy
// from its name (static, target-util, slo-pid).
func ScalePolicyByName(name string) (ScalePolicy, error) {
	f, ok := scalePolicyFactories[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown scale policy %q (have %s)", name, strings.Join(ScalePolicyNames(), ", "))
	}
	return f(), nil
}

// ScalePolicyNames returns the registered scale-policy names, sorted.
func ScalePolicyNames() []string {
	names := make([]string, 0, len(scalePolicyFactories))
	for name := range scalePolicyFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AutoscaleConfig parameterizes an autoscaled routed simulation.
type AutoscaleConfig struct {
	// Replica configures every replica engine the fleet ever provisions.
	Replica Config
	// Policy decides the fleet size each control interval. Required, and
	// must be a fresh instance (policies carry controller state).
	Policy ScalePolicy
	// Router splits arrivals (and drain handoffs) across the active
	// replicas. Defaults to token-weighted JSQ. Must be fresh.
	Router Policy

	// MinReplicas and MaxReplicas bound the fleet; decisions are clamped
	// into [MinReplicas, MaxReplicas]. MinReplicas defaults to 1;
	// MaxReplicas defaults to MinReplicas.
	MinReplicas int
	MaxReplicas int
	// InitialReplicas is the fleet size at time zero (already booted).
	// Defaults to MinReplicas.
	InitialReplicas int

	// Interval is the control-loop sampling period. Defaults to 15 s.
	Interval sim.Duration
	// ProvisionDelay is how long a newly provisioned replica takes to boot
	// before it may admit requests. Defaults to 30 s.
	ProvisionDelay sim.Duration
	// GPUHourPrice is the $/GPU-hour rate EconReport bills replica
	// lifetimes at. Defaults to 2.5.
	GPUHourPrice float64
}

// FleetEvent is one entry of the fleet-size timeline: a lifecycle
// transition and the fleet composition right after it.
type FleetEvent struct {
	TimeNs sim.Time `json:"time_ns"`
	// Event is the transition: provision, activate, cancel, drain, retire,
	// or close (end of the arrival stream).
	Event string `json:"event"`
	// Replica is the slot the transition applies to (-1 for close).
	Replica int `json:"replica"`
	// Active, Provisioning and Draining count replicas by state after the
	// transition.
	Active       int `json:"active"`
	Provisioning int `json:"provisioning,omitempty"`
	Draining     int `json:"draining,omitempty"`
}

// DrainEvent is the audit record of one graceful scale-down.
type DrainEvent struct {
	TimeNs sim.Time `json:"time_ns"`
	// Replica is the drained slot.
	Replica int `json:"replica"`
	// HandedOff counts never-admitted requests re-routed to surviving
	// replicas at drain time; Residents counts requests that stayed
	// (running, resuming or in swap transit) to finish locally.
	HandedOff int `json:"handed_off"`
	Residents int `json:"residents"`
	// RetiredNs is when the replica finished its residents and retired.
	RetiredNs sim.Time `json:"retired_ns"`
	// Stranded counts requests still owned by the replica at retirement —
	// always zero unless the drain machinery is broken; recorded so
	// scenarios can assert it rather than assume it.
	Stranded int `json:"stranded"`
}

// EconReport is the economics ledger of one autoscaled run: every
// replica's provision-to-retire lifetime billed at GPUHourPrice, against
// the SLO-compliant tokens the fleet actually produced.
type EconReport struct {
	// GPUHours sums replica lifetimes (provision to retire, boot time
	// included) times the per-replica GPU count, in virtual hours.
	GPUHours float64 `json:"gpu_hours"`
	// GPUHourPrice is the billing rate; CostUSD = GPUHours x GPUHourPrice.
	GPUHourPrice float64 `json:"gpu_hour_price"`
	CostUSD      float64 `json:"cost_usd"`
	// PeakReplicas is the largest simultaneously active fleet;
	// MeanReplicas is the time-weighted average over the run span.
	PeakReplicas int     `json:"peak_replicas"`
	MeanReplicas float64 `json:"mean_replicas"`
	// GoodTokens counts output tokens of SLO-compliant requests;
	// GoodputPerGPUHour and CostPerMTok derive from it.
	GoodTokens        int64   `json:"good_tokens"`
	GoodputPerGPUHour float64 `json:"goodput_per_gpu_hour"`
	CostPerMTok       float64 `json:"cost_per_mtok"`
}

// AutoscaleResult is the outcome of one autoscaled routed simulation.
type AutoscaleResult struct {
	// Policy and RouterPolicy name the scale and routing policies.
	Policy       string `json:"policy"`
	RouterPolicy string `json:"router_policy"`
	// PerReplica holds one Result per slot ever provisioned, in provision
	// order; Merged pools them (MergeResults) as the cluster-level view.
	PerReplica []*Result `json:"per_replica"`
	Merged     *Result   `json:"merged"`
	// Fleet is the fleet-size timeline; Drains the scale-down audit
	// records; Samples the control-loop inputs in sampling order.
	Fleet   []FleetEvent   `json:"fleet"`
	Drains  []DrainEvent   `json:"drains,omitempty"`
	Samples []ScaleSignals `json:"samples,omitempty"`
	// ScaleUps and ScaleDowns count replica-level actuations (a decision
	// moving the fleet by two counts twice).
	ScaleUps   int `json:"scale_ups"`
	ScaleDowns int `json:"scale_downs"`
	// Econ is the run's economics ledger.
	Econ EconReport `json:"econ"`
}

// Summarize aggregates the cluster-level (merged) result under an SLO.
func (r *AutoscaleResult) Summarize(slo SLO) Summary { return r.Merged.Summarize(slo) }

// slotSample is the control loop's per-slot sampling state: previous
// cumulative gpu busy time, and (exact metrics mode) the per-request row
// cursor with running SLO counters.
type slotSample struct {
	lastBusy sim.Duration
	cursor   int
	metCum   int64
	doneCum  int64
}

// RunAutoscaled replays the workload against an elastically sized replica
// fleet: arrivals are routed across the currently active replicas, and a
// control loop samples fleet signals every Interval and scales the fleet
// under the configured ScalePolicy — provisioning fresh replicas (with
// boot delay, and a cold prefix cache, like real instances), canceling
// boots that became unnecessary, and gracefully draining scale-down
// victims, whose never-admitted requests are re-routed to the survivors
// at the drain instant. Everything runs in one discrete-event timeline,
// so results are bit-stable. The returned result carries the per-replica
// and merged metrics, the fleet/drain audit trail, the control samples
// and the EconReport.
func RunAutoscaled(ac AutoscaleConfig, wl Workload) (*AutoscaleResult, error) {
	if ac.Policy == nil {
		return nil, fmt.Errorf("serve: AutoscaleConfig.Policy is nil")
	}
	router := orJSQ(ac.Router)
	minR := ac.MinReplicas
	if minR == 0 {
		minR = 1
	}
	maxR := ac.MaxReplicas
	if maxR == 0 {
		maxR = minR
	}
	initR := ac.InitialReplicas
	if initR == 0 {
		initR = minR
	}
	if minR < 1 || maxR < minR || initR < minR || initR > maxR {
		return nil, fmt.Errorf("serve: AutoscaleConfig fleet bounds min=%d init=%d max=%d", minR, initR, maxR)
	}
	interval, delay, err := controlTiming(ac.Interval, ac.ProvisionDelay)
	if err != nil {
		return nil, err
	}
	price := ac.GPUHourPrice
	if price == 0 {
		price = 2.5
	}
	if price < 0 {
		return nil, fmt.Errorf("serve: AutoscaleConfig gpu-hour-price=%g", price)
	}
	d, err := newDeployment(ac.Replica, wl, router)
	if err != nil {
		return nil, err
	}
	d.delay, d.eager, d.name = delay, true, replicaName
	c := d.c
	sloFor := func(p int) SLO {
		if s, ok := c.TierSLOs[p]; ok {
			return s
		}
		return c.SLO
	}

	out := &AutoscaleResult{Policy: ac.Policy.Name(), RouterPolicy: router.Name()}
	drainIdx := map[int]int{} // slot id -> index into out.Drains
	d.note = func(now sim.Time, ev string, sl *slot) {
		id := -1
		if sl != nil {
			id = sl.id
		}
		if k, ok := drainIdx[id]; ok && ev == "retire" {
			out.Drains[k].RetiredNs = now
			out.Drains[k].Stranded = sl.owned()
		}
		p, dr := d.census()
		out.Fleet = append(out.Fleet, FleetEvent{TimeNs: now, Event: ev, Replica: id,
			Active: len(d.pools[roleUnified]), Provisioning: p, Draining: dr})
	}

	// slotTotals returns a slot's cumulative completed/SLO-met request
	// counts: streamed tier counters, or (exact mode) an incremental scan
	// of the rows appended since the last sample.
	var samp []slotSample // indexed by slot id
	slotTotals := func(sl *slot, st *slotSample) (met, done int64) {
		if sl.s.stream != nil {
			for _, t := range sl.s.stream.Tiers {
				met += t.Met
				done += t.Requests - t.Rejected
			}
			return met, done
		}
		rows := sl.s.res.PerRequest
		for ; st.cursor < len(rows); st.cursor++ {
			m := rows[st.cursor]
			if m.Rejected {
				continue
			}
			st.doneCum++
			if sloFor(m.Priority).Met(m) {
				st.metCum++
			}
		}
		return st.metCum, st.doneCum
	}

	var prevT sim.Time
	var prevMet, prevDone int64
	sample := func(now sim.Time) ScaleSignals {
		p, dr := d.census()
		a := len(d.pools[roleUnified])
		sig := ScaleSignals{TimeNs: now, Active: a, Provisioning: p, Draining: dr, Min: minR, Max: maxR}
		for len(samp) < len(d.slots) {
			samp = append(samp, slotSample{})
		}
		var busyDelta sim.Duration
		var met, done int64
		for i, sl := range d.slots {
			st := &samp[i]
			if sl.state == slotActive {
				sig.QueuedRequests += sl.s.QueuedRequests()
				sig.InFlightTokens += sl.s.InFlightTokens()
				busyDelta += sl.s.GPUBusy() - st.lastBusy
			}
			st.lastBusy = sl.s.GPUBusy()
			m, dn := slotTotals(sl, st)
			met += m
			done += dn
		}
		if w := now - prevT; w > 0 && a > 0 {
			sig.Utilization = float64(busyDelta) / (float64(w) * float64(a))
		}
		sig.Completed = done - prevDone
		sig.Attainment = 1
		if sig.Completed > 0 {
			sig.Attainment = float64(met-prevMet) / float64(sig.Completed)
		}
		prevT, prevMet, prevDone = now, met, done
		out.Samples = append(out.Samples, sig)
		return sig
	}

	control := func(now sim.Time) {
		sig := sample(now)
		desired := clampReplicas(ac.Policy.Desired(sig), minR, maxR)
		cur := sig.Active + sig.Provisioning
		if desired > cur {
			out.ScaleUps += desired - cur
			for i := cur; i < desired; i++ {
				d.provision(d.newSlot(len(d.slots), roleUnified), roleUnified, "provision")
			}
			return
		}
		down := cur - desired
		out.ScaleDowns += down
		// Cancel capacity still booting first — it holds no requests.
		for _, sl := range d.slots {
			if down == 0 {
				break
			}
			if sl.state == slotProvisioning && !sl.canceled {
				sl.canceled = true
				d.note(now, "cancel", sl)
				down--
			}
		}
		for ; down > 0; down-- {
			v, handed := d.drain(roleUnified, roleUnified)
			if v == nil {
				continue
			}
			drainIdx[v.id] = len(out.Drains)
			out.Drains = append(out.Drains, DrainEvent{TimeNs: now, Replica: v.id, HandedOff: handed, Residents: v.owned()})
		}
	}

	for i := 0; i < initR; i++ {
		if err := d.add(i, roleUnified); err != nil {
			return nil, err
		}
	}
	if err := d.run(interval, control); err != nil {
		return nil, err
	}
	out.PerReplica = d.results()
	out.Merged = d.merge(out.PerReplica)
	out.Econ = econReport(c, price, d.slots, out.Merged, d.peak, sloFor)
	return out, nil
}

// econReport derives the economics ledger from the fleet's lifetimes and
// the merged metrics.
func econReport(c Config, price float64, fleet []*slot, merged *Result, peak int, sloFor func(int) SLO) EconReport {
	e := EconReport{GPUHourPrice: price, PeakReplicas: peak}
	gpus := float64(c.Env.TotalGPUs())
	var lifeNs float64
	var firstProv, lastRet sim.Time
	for i, sl := range fleet {
		lifeNs += float64(sl.retiredAt - sl.provisionedAt)
		if i == 0 || sl.provisionedAt < firstProv {
			firstProv = sl.provisionedAt
		}
		if i == 0 || sl.retiredAt > lastRet {
			lastRet = sl.retiredAt
		}
	}
	e.GPUHours = lifeNs * gpus / 3.6e12
	e.CostUSD = e.GPUHours * price
	if span := float64(lastRet - firstProv); span > 0 {
		e.MeanReplicas = lifeNs / span
	}
	e.GoodTokens = goodTokens(merged, sloFor)
	if e.GPUHours > 0 {
		e.GoodputPerGPUHour = float64(e.GoodTokens) / e.GPUHours
	}
	if e.GoodTokens > 0 {
		e.CostPerMTok = e.CostUSD / (float64(e.GoodTokens) / 1e6)
	}
	return e
}

// goodTokens counts output tokens of SLO-compliant requests in a merged
// result: streamed tier counters under MetricsStream, a row scan under
// the configured per-tier SLOs otherwise.
func goodTokens(r *Result, sloFor func(int) SLO) int64 {
	var g int64
	if r.Stream != nil {
		for _, t := range r.Stream.Tiers {
			g += t.GoodTokens
		}
		return g
	}
	for _, m := range r.PerRequest {
		if !m.Rejected && sloFor(m.Priority).Met(m) {
			g += int64(m.OutputLen)
		}
	}
	return g
}
