package serve

// The deployment core: the one driver behind Run, RunRouted,
// RunDisaggregated, RunAutoscaled and RunAutoscaledDisagg. Each of those
// is a static configuration of it — which pools exist, which policies
// route into them, whether a control loop resizes them — plus the shaping
// of its own result type.
//
// A deployment is a set of replica slots on one discrete-event engine.
// Every slot serves one pool at a time: unified (chunked prefill and
// decode on the same replica), prefill or decode. Arrivals enter the entry
// pool (unified, or prefill when the deployment is disaggregated) through
// the route policy; a finished prefill crosses the KV-handoff fabric to
// the decode replica the place policy picks. A slot moves through
//
//	provisioning --> active --> draining --> retired
//
// and a draining slot whose target pool differs from its current one is a
// conversion: once its residents finish it provisions again, into the
// target pool, on the same fabric group. The core is the only code that
// builds the engine, injects arrivals, prices handoffs, drains, checks
// the drained engine and merges results, so a hook added here sees every
// deployment shape.

import (
	"fmt"

	"mscclpp/internal/sim"
)

// slotState is a replica slot's lifecycle state.
type slotState int

const (
	slotProvisioning slotState = iota // booting; not routable yet
	slotActive                        // routable in its pool
	slotDraining                      // finishing residents; not routable
	slotRetired                       // down for good
)

// slot is one replica slot: a fixed share of the cluster's GPUs (and of
// the KV-handoff fabric) that runs one replica at a time.
type slot struct {
	id       int  // fabric group and naming index
	role     role // pool of the current replica
	target   role // pool after an in-flight conversion (== role otherwise)
	state    slotState
	canceled bool       // scale-down hit while still provisioning
	s        *Scheduler // current replica; nil until the first build
	gen      int        // replicas built on the slot so far

	provisionedAt sim.Time
	retiredAt     sim.Time
}

// owned counts the requests the slot's replica still holds: running,
// queued, or with a swap transfer in flight.
func (sl *slot) owned() int {
	return sl.s.ActiveRequests() + sl.s.QueuedRequests() + sl.s.transit()
}

// deployment is the state of one run of the core.
type deployment struct {
	c        Config           // defaulted replica config
	wl       Workload         // the admitted requests (prepare's filter)
	rejected []RequestMetrics // prepare's up-front rejections
	eng      *sim.Engine

	route Policy       // entry-pool routing: arrivals and drain hand-backs
	place Policy       // decode placement of finished prefills; nil unless disaggregated
	entry role         // the pool arrivals enter
	delay sim.Duration // provisioning time of a booting slot
	// eager builds a slot's replica when provisioning starts, so it exists
	// (and bills) through its boot even if the boot is canceled; otherwise
	// the replica is built when the slot activates.
	eager bool
	name  func(sl *slot) string // replica (engine resource) name of the slot's next build
	// note audits every lifecycle transition right after it happens:
	// provision/reboot, activate, abort, drain/convert, retire, and the
	// pool closes (sl nil). A no-op unless the driver keeps an audit.
	note func(now sim.Time, ev string, sl *slot)

	slots     []*slot
	built     []*Scheduler    // every replica ever built, in build order
	pools     [3][]*Scheduler // active replicas per role, in slot order
	decGroups []int           // fabric group of each pools[roleDecode] entry
	closed    [3]bool         // pools no longer admitting (end of stream)
	ended     bool            // the arrival stream has ended
	peak      int             // most replicas active at once

	link      *KVLink
	lanes     int64 // tensor-parallel lanes per handoff
	expect    int   // requests that will hand off (OutputLen > 1)
	delivered int
	kv        handoffStats
}

// handoffStats accumulates KV-handoff accounting.
type handoffStats struct {
	n        int
	bytes    int64
	sum, max sim.Duration
}

func (h handoffStats) mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.n)
}

// closeEvents names each pool's end-of-admission audit event.
var closeEvents = [...]string{roleUnified: "close", rolePrefill: "close-prefill", roleDecode: "close-decode"}

// newDeployment validates cfg and wl through prepare and returns an empty
// unified deployment whose arrivals are routed by route.
func newDeployment(cfg Config, wl Workload, route Policy) (*deployment, error) {
	c, admitted, rejected, err := prepare(cfg, wl)
	if err != nil {
		return nil, err
	}
	return &deployment{c: c, wl: admitted, rejected: rejected, eng: sim.NewEngine(), route: route,
		note: func(sim.Time, string, *slot) {}}, nil
}

// controlTiming defaults an elastic deployment's control-loop period
// (15 s) and provisioning delay (30 s) and rejects negative values.
func controlTiming(interval, delay sim.Duration) (sim.Duration, sim.Duration, error) {
	if interval == 0 {
		interval = 15 * sim.Second
	}
	if delay == 0 {
		delay = 30 * sim.Second
	}
	if interval < 0 || delay < 0 {
		return 0, 0, fmt.Errorf("serve: control interval=%d provision-delay=%d", interval, delay)
	}
	return interval, delay, nil
}

// disaggregate makes arrivals enter the prefill pool and joins it to the
// decode pool with a KV-handoff fabric of groups slot-sized GPU groups
// (slot id = fabric group). With whole nodes per slot every handoff
// crosses nodes and pays RDMA; KVLink also prices same-node (DMA) layouts.
func (d *deployment) disaggregate(groups int, place Policy) error {
	fabEnv := *d.c.Env
	fabEnv.Name = d.c.Env.Name + "-kv"
	fabEnv.Nodes = d.c.Env.Nodes * groups
	link, err := NewKVLink(&fabEnv, groups)
	if err != nil {
		return err
	}
	d.link, d.lanes, d.place, d.entry = link, int64(d.c.Env.TotalGPUs()), place, rolePrefill
	for _, r := range d.wl.Requests {
		if r.OutputLen > 1 {
			d.expect++
		}
	}
	return nil
}

// add puts an already booted replica of pool ro on a new slot.
func (d *deployment) add(id int, ro role) error {
	sl := d.newSlot(id, ro)
	if err := d.build(sl); err != nil {
		return err
	}
	sl.state = slotActive
	d.rebuild()
	return nil
}

// newSlot appends an empty slot, provisioning from now.
func (d *deployment) newSlot(id int, ro role) *slot {
	sl := &slot{id: id, role: ro, target: ro, provisionedAt: d.eng.Now()}
	d.slots = append(d.slots, sl)
	return sl
}

// build starts the slot's next replica, in its target pool.
func (d *deployment) build(sl *slot) error {
	sl.role = sl.target
	s, err := newScheduler(d.eng, d.name(sl), d.c, sl.role)
	if err != nil {
		return err
	}
	sl.gen++
	s.res.Workload = d.wl.Name
	s.onRetired = func(at sim.Time) { d.retire(sl, at) }
	if sl.role == rolePrefill {
		s.onPrefilled = func(pr Prefilled, end sim.Time, release func()) { d.handoff(sl.id, pr, end, release) }
	}
	sl.s = s
	d.built = append(d.built, s)
	return nil
}

// mustBuild is build during the run, where the first build already
// validated the identical configuration.
func (d *deployment) mustBuild(sl *slot) {
	if err := d.build(sl); err != nil {
		panic(fmt.Sprintf("serve: building replica slot %d: %v", sl.id, err))
	}
}

// rebuild refreshes the routable pools after a lifecycle transition.
func (d *deployment) rebuild() {
	for ro := range d.pools {
		d.pools[ro] = d.pools[ro][:0]
	}
	d.decGroups = d.decGroups[:0]
	active := 0
	for _, sl := range d.slots {
		if sl.state != slotActive {
			continue
		}
		d.pools[sl.role] = append(d.pools[sl.role], sl.s)
		if sl.role == roleDecode {
			d.decGroups = append(d.decGroups, sl.id)
		}
		active++
	}
	if active > d.peak {
		d.peak = active
	}
}

// census counts slots by state: provisioning (canceled boots excluded)
// and draining. Active counts are the pool lengths.
func (d *deployment) census() (prov, drain int) {
	for _, sl := range d.slots {
		switch {
		case sl.state == slotProvisioning && !sl.canceled:
			prov++
		case sl.state == slotDraining:
			drain++
		}
	}
	return prov, drain
}

// pick asks p for the index of a pool-ro replica for req; an index
// outside the pool is a policy bug.
func (d *deployment) pick(p Policy, ro role, req Request) int {
	pool := d.pools[ro]
	i := p.Pick(req, pool)
	if i < 0 || i >= len(pool) {
		panic(fmt.Sprintf("serve: policy %s picked replica %d of %d", p.Name(), i, len(pool)))
	}
	return i
}

// submit routes a fresh (or handed-back) request into the entry pool.
func (d *deployment) submit(req Request) {
	d.pools[d.entry][d.pick(d.route, d.entry, req)].Submit(req)
}

// handoff moves a finished prefill from fabric group src to the decode
// replica the place policy picks. The decode work is committed to that
// replica at once (reservePending), so later placements see transfers
// still on the wire; the prompt KV stays pinned on the prefill replica
// until the transfer ends, and only then may the decode replica admit.
func (d *deployment) handoff(src int, pr Prefilled, end sim.Time, release func()) {
	j := d.pick(d.place, roleDecode, pr.Req)
	dst := d.pools[roleDecode][j]
	shard := d.c.Model.KVShardBytes(pr.Req.PromptLen)
	hEnd := d.link.Transfer(end, src, d.decGroups[j], shard)
	pr.HandoffBytes = shard * d.lanes
	pr.HandoffDur = hEnd - end
	d.kv.n++
	d.kv.bytes += pr.HandoffBytes
	d.kv.sum += pr.HandoffDur
	if pr.HandoffDur > d.kv.max {
		d.kv.max = pr.HandoffDur
	}
	pendTok := int64(pr.Req.OutputLen - 1)
	dst.reservePending(pendTok)
	d.eng.At(hEnd, func() {
		release()
		dst.reservePending(-pendTok)
		dst.SubmitPrefilled(pr)
		d.delivered++
		d.closeDecode()
	})
}

// closePool stops pool ro admitting: its active replicas close and run
// down. Draining replicas are already closing; a slot still booting into
// a closed pool aborts when the boot completes.
func (d *deployment) closePool(ro role) {
	d.closed[ro] = true
	for _, sl := range d.slots {
		if sl.state == slotActive && sl.role == ro {
			sl.s.Close()
		}
	}
	d.note(d.eng.Now(), closeEvents[ro], nil)
}

// endStream runs at the last arrival, after every same-instant submit.
func (d *deployment) endStream() {
	d.ended = true
	d.closePool(d.entry)
	d.closeDecode()
}

// closeDecode closes the decode pool once the stream has ended and every
// handoff has landed (one-token requests finish on the prefill side).
func (d *deployment) closeDecode() {
	if d.link != nil && d.ended && d.delivered == d.expect && !d.closed[roleDecode] {
		d.closePool(roleDecode)
	}
}

// provision boots slot sl into pool ro; it activates delay later unless
// it was canceled or the pool closed meanwhile.
func (d *deployment) provision(sl *slot, ro role, ev string) {
	now := d.eng.Now()
	sl.state, sl.target = slotProvisioning, ro
	if d.eager {
		d.mustBuild(sl)
	}
	d.note(now, ev, sl)
	d.eng.At(now+d.delay, func() { d.boot(sl) })
}

// boot completes a provisioning slot's boot.
func (d *deployment) boot(sl *slot) {
	now := d.eng.Now()
	if sl.canceled || d.closed[sl.target] {
		if d.eager {
			// Built at provision time: the replica is billed its lifetime
			// but never admits, and retires as soon as it is closed.
			sl.s.Close()
			return
		}
		sl.state = slotRetired
		d.note(now, "abort", sl)
		return
	}
	if !d.eager {
		d.mustBuild(sl)
	}
	sl.state = slotActive
	d.rebuild()
	d.note(now, "activate", sl)
}

// drain gracefully retires the least-loaded active replica of pool ro
// (newest slot on ties), towards pool target: it stops admitting, the
// requests it never admitted are routed again through the entry pool,
// and its residents finish locally. Returns the victim, nil when the pool
// is empty, and how many requests it handed back.
func (d *deployment) drain(ro, target role) (*slot, int) {
	var victim *slot
	for _, sl := range d.slots {
		if sl.state != slotActive || sl.role != ro {
			continue
		}
		if victim == nil || sl.s.InFlightTokens() < victim.s.InFlightTokens() ||
			(sl.s.InFlightTokens() == victim.s.InFlightTokens() && sl.id > victim.id) {
			victim = sl
		}
	}
	if victim == nil {
		return nil, 0
	}
	victim.state, victim.target = slotDraining, target
	d.rebuild()
	back := victim.s.Drain()
	for _, req := range back {
		d.submit(req)
	}
	ev := "drain"
	if target != ro {
		ev = "convert"
	}
	d.note(d.eng.Now(), ev, victim)
	return victim, len(back)
}

// retire is every replica's onRetired hook: a conversion drain reboots
// the slot into its target pool, anything else retires it.
func (d *deployment) retire(sl *slot, at sim.Time) {
	sl.retiredAt = at
	if sl.state == slotDraining && sl.target != sl.role {
		d.provision(sl, sl.target, "reboot")
		return
	}
	sl.state = slotRetired
	d.rebuild()
	d.note(at, "retire", sl)
}

// run schedules the control loop (every interval from interval on, until
// the stream ends; none when control is nil), the arrivals and the end of
// the stream, runs the engine dry, and checks that every replica drained
// and every slot retired.
func (d *deployment) run(interval sim.Duration, control func(now sim.Time)) error {
	if control != nil {
		var tick func()
		tick = func() {
			if d.ended {
				return
			}
			now := d.eng.Now()
			control(now)
			d.eng.At(now+interval, tick)
		}
		d.eng.At(interval, tick)
	}
	var last sim.Time
	for _, r := range d.wl.Requests {
		req := r
		d.eng.At(req.Arrival, func() { d.submit(req) })
		if req.Arrival > last {
			last = req.Arrival
		}
	}
	// Scheduled after every same-instant arrival (FIFO order).
	d.eng.At(last, d.endStream)
	if err := d.eng.Run(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := checkDrained(d.built...); err != nil {
		return err
	}
	for _, sl := range d.slots {
		if sl.state != slotRetired {
			return fmt.Errorf("serve: replica slot %d never retired (state %d)", sl.id, sl.state)
		}
	}
	return nil
}

// results returns the Result of every replica built in one of the given
// pools (all pools when none is given), in build order.
func (d *deployment) results(pools ...role) []*Result {
	var out []*Result
	for _, s := range d.built {
		keep := len(pools) == 0
		for _, ro := range pools {
			keep = keep || s.role == ro
		}
		if keep {
			out = append(out, s.Result())
		}
	}
	return out
}

// merge pools parts with prepare's rejections into the cluster view, one
// record per offered request.
func (d *deployment) merge(parts []*Result) *Result {
	m := MergeResults(append(append([]*Result{}, parts...), rejectedPart(d.c, d.rejected))...)
	m.Workload = d.wl.Name
	return m
}

// sole returns a one-replica deployment's Result with the rejections
// appended after its rows, which stay in completion order (a merge would
// reorder them by ID), and its Counters set.
func (d *deployment) sole() *Result {
	s := d.built[0]
	res := s.Result()
	res.Rejected += len(d.rejected)
	if s.stream != nil {
		for _, m := range d.rejected {
			s.stream.addRejected(m.Priority)
		}
		return res
	}
	if res.PerRequest == nil {
		res.PerRequest = make([]RequestMetrics, 0, len(d.rejected))
	}
	res.PerRequest = append(res.PerRequest, d.rejected...)
	return res
}

// rejectedPart wraps prepare's up-front rejections as a mergeable Result
// in the configured metrics mode: exact rows under MetricsExact, streamed
// per-tier rejection counters under MetricsStream.
func rejectedPart(c Config, rejected []RequestMetrics) *Result {
	r := &Result{Rejected: len(rejected)}
	if c.Metrics == MetricsExact {
		r.PerRequest = rejected
		return r
	}
	r.Stream = newStreamStats(c.SLO, c.TierSLOs)
	for _, m := range rejected {
		r.Stream.addRejected(m.Priority)
	}
	return r
}

// checkDrained verifies every scheduler exited cleanly once the engine
// drained. Under DriverProc a stuck replica surfaces as the engine's
// blocked-Proc DeadlockError; the callback driver has no goroutine to
// detect, so the core asserts the terminal state explicitly instead.
func checkDrained(ss ...*Scheduler) error {
	for _, s := range ss {
		if s.cfg.Driver == DriverProc || s.Done() {
			continue
		}
		return fmt.Errorf("serve: engine drained but a scheduler never finished "+
			"(%d active, %d waiting, %d in transit, closed=%v)",
			len(s.active), len(s.waiting), s.transit(), s.closed)
	}
	return nil
}
