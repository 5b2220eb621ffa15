// Command perfbench is the repository's host-time benchmark. It runs one
// workload of the simulator — a collective sweep or a serving fleet — in a
// single process, one op at a time on one goroutine and one P (GOMAXPROCS
// 1), and checks every op's simulated result. The last line of standard
// output is one JSON object: with -trace 0 it carries the end-to-end
// metrics, with -trace 1 the per-layer split (CPU profile folded by
// package, spans recorded around the benchmark's calls into each layer,
// and a layer probe).
//
// Run it from the repository root through perfbench/run.py, which builds
// this package first:
//
//	python3 perfbench/run.py --workload coll-a100 --seed 1 --seconds 30 --trace 0
//
// Every time is host time. The end-to-end times are CPU time of the
// process, which leaves out steal: the time a shared host's hypervisor
// runs something else on the benchmark's virtual CPUs. Steal moves wall
// time by tens of percent from one run to the next. The CPU time is then
// scaled to a fixed host speed, measured by a reference chunk of work that
// runs before every op (see host.go), because contention from other guests
// moves CPU time too. With one P, CPU time is the critical path plus the
// GC's work; a traced run reports CPU seconds per wall second. Simulated
// (virtual) results only feed the correctness checks and the run's digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"mscclpp/internal/benchkit"
)

const (
	// A run times its workload's set-up in at least minBatches batches,
	// and more while the batches took less than setupBudget in total, up
	// to maxBatches. A batch repeats the set-up until it has taken
	// setupBatch, so a sub-millisecond collective set-up is timed over
	// hundreds of repeats; setup_s is the median of the batches' means.
	minBatches  = 5
	maxBatches  = 41
	setupBatch  = 50 * time.Millisecond
	setupBudget = 2 * time.Second
	// minOps is the least number of ops an end-to-end phase times, so p90
	// has at least ten samples beyond it.
	minOps = 100
)

func main() {
	// One P: the simulator's goroutine hand-offs then switch in place
	// instead of waking a second P, and no idle P spins for work. A
	// spinning P's CPU time depends on how busy the host's other guests
	// keep the second virtual CPU, and moved the CPU time of whole runs by
	// 10% under load the benchmark does not control.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: coll-h100-nvls, coll-a100 or serve-fleet")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (the collective workloads have none)")
	seconds := fs.Float64("seconds", 30, "host seconds each measured phase runs for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (coll-h100-nvls, coll-a100, serve-fleet), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	res, digest, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d ops=%d failed=%d digest=%016x\n",
		w.name, *seed, res.Attempted, res.Failed, digest)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// phase is one measured phase: ops run back to back until a stopRule
// says stop. opMs holds each op's CPU time, refMs the CPU time of the
// reference chunk that ran right before it, and normMs the op's CPU time
// scaled to the reference speed and then replaced by the median over the
// ops at the same place in every pass (see passMedians). steal is the time
// the hypervisor ran something else on the machine's virtual CPUs during
// the phase, summed over the CPUs.
type phase struct {
	ops, failed      int
	wall, cpu, steal time.Duration
	opMs, normMs     []float64
	refMs            []float64
	digest           uint64
}

// opsPerSec returns ops per CPU second at the reference speed.
func (p phase) opsPerSec() float64 {
	var ms float64
	for _, v := range p.normMs {
		ms += v
	}
	return float64(p.ops) / (ms / 1e3)
}

// cpuTime returns the CPU time the process has used, over all its
// threads, from CLOCK_PROCESS_CPUTIME_ID. It counts to the nanosecond,
// where getrusage splits the same sum by tick samples and can lag by a
// tick, too coarse for a sub-millisecond set-up.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// The clock exists on every Linux since 2.6.12.
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// stealTime returns the steal time of every CPU of the machine so far,
// from /proc/stat, or 0 where the kernel does not report it.
func stealTime() time.Duration {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	// /proc/stat counts in USER_HZ ticks, which Linux fixes at 100 a second.
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stopRule says when a measured phase ends: once budget of wall time has
// passed and at least least ops ran, at a stride boundary if whole is
// set; or, if exact > 0, after exactly exact ops. A hard cap of the budget
// plus 40 seconds keeps a slow machine within the run's time limit.
type stopRule struct {
	budget time.Duration
	least  int
	whole  bool
	exact  int
}

func (r stopRule) done(b *bench, i int, el time.Duration) bool {
	if r.exact > 0 {
		return i >= r.exact
	}
	return el >= r.budget+40*time.Second ||
		(el >= r.budget && i >= r.least && (!r.whole || i%b.stride == 0))
}

// measure runs ops from b until the rule says stop. Each stride starts
// with b.reset, so every pass over the workload starts from the same state.
func measure(b *bench, rule stopRule, tr *tracer, stderr io.Writer) phase {
	b.count = counters{}
	h := fnv.New64a()
	ref := newHostRef()
	defer ref.close()
	var p phase
	start, cpuStart, stealStart := time.Now(), cpuTime(), stealTime()
	for i := 0; !rule.done(b, i, time.Since(start)); i++ {
		if i%b.stride == 0 {
			b.reset()
		}
		c := b.cells[i%len(b.cells)]
		p.refMs = append(p.refMs, ref.ms())
		id := tr.begin("op")
		t0 := cpuTime()
		line, err := c.run(tr)
		d := cpuTime() - t0
		tr.end(id)
		p.ops++
		p.opMs = append(p.opMs, float64(d)/float64(time.Millisecond))
		if err != nil {
			p.failed++
			if p.failed <= 5 {
				fmt.Fprintf(stderr, "perfbench: op %s failed: %v\n", c.name, err)
			}
			line = c.name + " failed"
		}
		io.WriteString(h, line+"\n")
	}
	p.wall, p.cpu, p.steal = time.Since(start), cpuTime()-cpuStart, stealTime()-stealStart
	p.normMs = passMedians(normalize(p.opMs, p.refMs), b.stride)
	p.digest = h.Sum64()
	return p
}

// passMedians replaces each op's time by the median time of the ops at the
// same place in every pass, which run the same cell from the same state. A
// collective run makes seven to eleven passes, so a cell's time no longer
// rests on one op that a burst of load on the host slowed. A serving run
// makes one pass, or two on a fast host; one pass keeps its own times.
func passMedians(ms []float64, stride int) []float64 {
	out := make([]float64, len(ms))
	var same []float64
	for i := range ms {
		same = same[:0]
		for j := i % stride; j < len(ms); j += stride {
			same = append(same, ms[j])
		}
		out[i] = benchkit.Percentile(same, 50)
	}
	return out
}

// setUp times the workload's set-up in batches and returns the last bench
// with the median of the batches' per-set-up means, at the reference speed.
// Each set-up starts from a collected heap, as a user's one set-up in a
// fresh process does: it neither pays for an earlier set-up's garbage nor
// stacks its own on it, so the set-ups do not set the process's peak
// memory. The collections are not timed. Each batch is scaled by the
// reference chunks run right before and after it.
func setUp(w *workload, seed uint64) (*bench, time.Duration, error) {
	var b *bench
	var means []float64
	var total time.Duration
	ref := newHostRef()
	defer ref.close()
	refs := make([]float64, 0, 2*refWindow)
	for len(means) < minBatches || (total < setupBudget && len(means) < maxBatches) {
		refs = refs[:0]
		for range refWindow {
			refs = append(refs, ref.ms())
		}
		var d time.Duration
		n := 0
		for n == 0 || d < setupBatch {
			b = nil
			runtime.GC()
			t0 := cpuTime()
			var err error
			if b, err = w.setup(seed); err != nil {
				return nil, 0, err
			}
			d += cpuTime() - t0
			n++
		}
		for range refWindow {
			refs = append(refs, ref.ms())
		}
		total += d
		means = append(means, float64(d)/float64(n)*refNominalMs/benchkit.Percentile(refs, 50))
	}
	runtime.GC()
	return b, time.Duration(benchkit.Percentile(means, 50)), nil
}

func runWorkload(w *workload, seed uint64, budget time.Duration, traced bool, stderr io.Writer) (*result, uint64, error) {
	b, setup, err := setUp(w, seed)
	if err != nil {
		return nil, 0, err
	}
	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }

	if !traced {
		p := measure(b, stopRule{budget: budget, least: minOps, whole: true}, nil, stderr)
		fmt.Fprintf(stderr, "perfbench: phase wall %.3f s, cpu %.3f s, steal %.3f s over all CPUs, %.4g ops per unscaled CPU second, reference chunk median %.3f ms\n",
			p.wall.Seconds(), p.cpu.Seconds(), p.steal.Seconds(), float64(p.ops)/p.cpu.Seconds(), benchkit.Percentile(p.refMs, 50))
		// Read before the materialized sample, whose full-size buffers
		// would otherwise set the peak.
		rss, err := peakRSSMB()
		if err != nil {
			return nil, 0, err
		}
		sampleErr := b.sample()
		if sampleErr != nil {
			fmt.Fprintf(stderr, "perfbench: materialized sample: %v\n", sampleErr)
		}
		res.Attempted, res.Failed = p.ops, p.failed
		res.Correct = p.failed == 0 && sampleErr == nil
		s := benchkit.NewSummary(p.normMs)
		put("setup_s", "s", setup.Seconds())
		put("ops_per_s", "1/s", p.opsPerSec())
		put("op_p50_ms", "ms", s.Percentile(50))
		put("op_p90_ms", "ms", s.Percentile(90))
		put("peak_rss_mb", "MB", rss)
		put("ok_frac", "frac", float64(p.ops-p.failed)/float64(p.ops))
		return res, p.digest, nil
	}

	// A traced run has two phases of whole passes, each at least half the
	// budget. The first runs under the CPU profiler, for the folded layer
	// split and the allocator and GC counts; the second under the tracer,
	// for span self times and counts. Tracing's cost is the traced phase's
	// rate against the end-to-end run's ops_per_s, which times the same
	// whole passes with neither profiler nor tracer.
	rule := stopRule{budget: budget / 2, least: 1, whole: true}
	f, err := profileFile()
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(f.Name())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, 0, err
	}
	pp := measure(b, rule, nil, stderr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	folded, err := foldProfile(f.Name())
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, l := range profLayers {
		put("prof."+l+".self_s", "s", float64(folded[l])/1e9)
		total += folded[l]
	}
	put("prof.total_s", "s", float64(total)/1e9)
	put("runtime.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	put("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC))

	tr := &tracer{}
	pt := measure(b, rule, tr, stderr)
	sampleErr := b.sample()
	if sampleErr != nil {
		fmt.Fprintf(stderr, "perfbench: materialized sample: %v\n", sampleErr)
	}
	ps, probeErr := b.probe()
	if probeErr != nil {
		fmt.Fprintf(stderr, "perfbench: layer probe: %v\n", probeErr)
	}
	res.Attempted, res.Failed = pp.ops+pt.ops, pp.failed+pt.failed
	res.Correct = res.Failed == 0 && sampleErr == nil && probeErr == nil

	put("ops", "count", float64(pp.ops))
	put("wall.ops_per_s", "1/s", float64(pp.ops)/pp.wall.Seconds())
	put("wall.cpu_per_wall", "s/s", pp.cpu.Seconds()/pp.wall.Seconds())
	put("trace.traced_ops_per_s", "1/s", pt.opsPerSec())
	// From the traced phase: while the CPU profiler runs, the process's
	// CPU clock advances only in coarse steps, too coarse for a chunk.
	put("host.ref_ms", "ms", benchkit.Percentile(pt.refMs, 50))
	put("setup.trace_gen_s", "s", b.traceGen.Seconds())

	secs := func(name string) (dur, self float64) {
		d, s := tr.total(name)
		return d.Seconds(), s.Seconds()
	}
	opDur, opSelf := secs("op")
	put("span.op_s", "s", opDur)
	put("span.op.self_s", "s", opSelf)
	mfDur, _ := secs("measurefn")
	put("span.measurefn_s", "s", mfDur)
	newDur, _ := secs("executor.new")
	put("span.executor.new_s", "s", newDur)
	runDur, _ := secs("executor.run")
	put("span.executor.run_s", "s", runDur)
	serveDur, serveSelf := secs("serve")
	put("span.serve_s", "s", serveDur)
	put("span.serve.self_s", "s", serveSelf)
	put("span.ar.hit_s", "s", tr.arHitDur.Seconds())
	put("span.ar.miss_s", "s", tr.arMissDur.Seconds())
	put("ar.calls", "count", float64(tr.arHits+tr.arMisses))
	put("ar.misses", "count", float64(tr.arMisses))

	c := b.count
	put("serve.iterations", "count", float64(c.serveIters))
	perIter := 0.0
	if c.serveIters > 0 {
		perIter = serveSelf * 1e9 / float64(c.serveIters)
	}
	put("serve.host_ns_per_iter", "ns", perIter)
	put("serve.preemptions", "count", float64(c.preemptions))
	put("serve.swaps", "count", float64(c.swaps))
	put("serve.rejected", "count", float64(c.rejected))

	put("probe.setup_s", "s", ps.setup.Seconds())
	put("probe.prepare_s", "s", ps.prepare.Seconds())
	put("probe.run_s", "s", ps.run.Seconds())
	put("sim.events", "count", float64(ps.events))
	perEvent := 0.0
	if ps.events > 0 {
		perEvent = float64(ps.run) / float64(ps.events)
	}
	put("sim.host_ns_per_event", "ns", perEvent)
	put("fabric.reservations", "count", float64(ps.reservations))
	return res, pt.digest, nil
}

// profileFile creates the file a traced run's CPU profile goes to, in the
// benchmark's build directory under the current directory.
func profileFile() (*os.File, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	return os.CreateTemp(".bench_build", "cpu-*.pprof")
}

// peakRSSMB returns the peak resident set size of this program image
// (VmHWM). getrusage's maxrss would also count whatever ran in the process
// before exec, such as the wrapper script.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
