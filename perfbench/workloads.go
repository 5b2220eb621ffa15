package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/benchkit"
	"mscclpp/internal/collective"
	"mscclpp/internal/core"
	"mscclpp/internal/dsl"
	"mscclpp/internal/executor"
	"mscclpp/internal/inference"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/plan"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// cell is one op: a collective cell (one size, one library's best-of, or
// one DSL plan) or a serving cell (one seeded trace through RunRouted). run
// returns a line describing the simulated result, which feeds the run's
// digest, and an error on a failed call, a golden mismatch or a broken
// invariant.
type cell struct {
	name string
	run  func(tr *tracer) (string, error)
}

// counters are per-layer counts the cells accumulate in every run.
type counters struct {
	serveIters, preemptions, swaps, rejected int64
}

// bench is one workload after set-up.
type bench struct {
	cells []cell
	// stride is the number of ops in one pass over the workload. An
	// end-to-end run stops only between passes, so every run times the
	// same mix of ops: a collective grid's cheap and expensive cells, or
	// a serving pass's cold and warm cells.
	stride int
	// reset runs at the start of each pass.
	reset func()
	// sample checks materialized results after the timed phase.
	sample func() error
	// probe runs the layer probe of a traced run.
	probe func() (probeStats, error)

	count    counters
	traceGen time.Duration
}

type workload struct {
	name  string
	setup func(seed uint64) (*bench, error)
}

var workloads = []workload{
	{"coll-h100-nvls", setupH100},
	{"coll-a100", setupA100},
	{"serve-fleet", setupServe},
}

// goldenDir holds the committed scenario goldens, relative to the
// repository root, where the benchmark runs.
const goldenDir = "internal/scenario/testdata/golden"

// gridSizes is the Fig 7-9 message-size grid up to 64 MB: the full grid
// runs to 1 GB, where one MSCCL++ H100 cell alone takes tens of seconds.
func gridSizes() []int64 {
	var out []int64
	for s := int64(1 << 10); s <= 64<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

var libNames = []string{"NCCL", "MSCCL", "MSCCL++"}

// golden holds one figure's expected points: series name -> size -> point.
type golden map[string]map[int64]benchkit.Point

// loadGolden reads the committed golden record of a scenario and returns
// the points of the tables whose title contains panel.
func loadGolden(scenario, panel string) (golden, error) {
	rec, err := readRecord(scenario)
	if err != nil {
		return nil, err
	}
	g := golden{}
	for _, t := range rec.Tables {
		if !strings.Contains(t.Title, panel) {
			continue
		}
		for _, s := range t.Series {
			if g[s.Name] == nil {
				g[s.Name] = map[int64]benchkit.Point{}
			}
			for _, p := range s.Points {
				if old, ok := g[s.Name][p.Size]; ok && old != p {
					return nil, fmt.Errorf("golden %s: %s at %d bytes differs between panels", scenario, s.Name, p.Size)
				}
				g[s.Name][p.Size] = p
			}
		}
	}
	if len(g) == 0 {
		return nil, fmt.Errorf("golden %s: no table matches %q", scenario, panel)
	}
	return g, nil
}

func readRecord(scenario string) (*benchkit.Record, error) {
	data, err := os.ReadFile(filepath.Join(goldenDir, scenario+".json"))
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var rec benchkit.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("golden %s: %w", scenario, err)
	}
	return &rec, nil
}

// collCells returns one cell per (library, size) of a figure's grid,
// each checked against the figure's golden point.
func collCells(fig string, env *topology.Env, fns []benchkit.MeasureFn, want golden) ([]cell, error) {
	var cells []cell
	for i, fn := range fns {
		lib := libNames[i]
		for _, size := range gridSizes() {
			exp, ok := want[lib][size]
			if !ok {
				return nil, fmt.Errorf("golden %s has no %s point at %d bytes", fig, lib, size)
			}
			name := fmt.Sprintf("%s/%s/%s", fig, lib, benchkit.HumanSize(size))
			cells = append(cells, cell{name: name, run: func(tr *tracer) (string, error) {
				id := tr.begin("measurefn")
				d, algo, err := fn(env, size)
				tr.end(id)
				if err != nil {
					return "", err
				}
				if d != exp.Dur || algo != exp.Algo {
					return "", fmt.Errorf("%s: got %d ns %s, golden %d ns %s", name, d, algo, exp.Dur, exp.Algo)
				}
				return fmt.Sprintf("%s %d %s", name, d, algo), nil
			}})
		}
	}
	return cells, nil
}

// setupH100 builds coll-h100-nvls: AllReduce on H100 1n8g, every library's
// best-of on the Fig 9 grid. The MSCCL++ cells above 1 MB pick the NVLS
// SwitchChannel algorithm, whose multimem reduce runs over virtual
// buffers in mem, so this is the workload of the mem fast path.
func setupH100(uint64) (*bench, error) {
	env := topology.H100(1)
	want, err := loadGolden("fig9", "")
	if err != nil {
		return nil, err
	}
	cells, err := collCells("fig9", env, arFns(), want)
	if err != nil {
		return nil, err
	}
	return &bench{
		cells:  cells,
		stride: len(cells),
		reset:  func() {},
		sample: func() error { return sampleColl(env, false, []int64{64 << 10, 4 << 20}) },
		probe:  func() (probeStats, error) { return runProbe(env, false, []int64{64 << 10, 16 << 20}) },
	}, nil
}

func arFns() []benchkit.MeasureFn {
	return []benchkit.MeasureFn{benchkit.NCCLAllReduce, benchkit.MSCCLAllReduce, benchkit.MSCCLPPAllReduce}
}

func agFns() []benchkit.MeasureFn {
	return []benchkit.MeasureFn{benchkit.NCCLAllGather, benchkit.MSCCLAllGather, benchkit.MSCCLPPAllGather}
}

// dslCase is one DSL-authored AllReduce plan. golden names the dslvsprim
// metric of the same plan, where the two coincide.
type dslCase struct {
	build  func(ranks int, size int64, nTB int) (*dsl.Program, error)
	kind   string
	size   int64
	nTB    int
	golden string
}

var dslCases = []dslCase{
	{dsl.BuildAllReduce1PA, "1PA-LL", 1 << 10, 2, ""},
	{dsl.BuildAllReduce1PA, "1PA-LL", 8 << 10, 2, "1PA-LL 8KB dsl"},
	{dsl.BuildAllReduce1PA, "1PA-LL", 64 << 10, 2, "1PA-LL 64KB dsl"},
	{dsl.BuildAllReduce1PA, "1PA-LL", 256 << 10, 2, ""},
	{dsl.BuildAllReduce2PAHB, "2PA-HB", 1 << 20, 4, "2PA-HB 1MB dsl"},
	{dsl.BuildAllReduce2PAHB, "2PA-HB", 4 << 20, 4, ""},
	{dsl.BuildAllReduce2PAHB, "2PA-HB", 16 << 20, 8, "2PA-HB 16MB dsl"},
	{dsl.BuildAllReduce2PAHB, "2PA-HB", 64 << 20, 8, ""},
}

func (c dslCase) lower(ranks int) (*plan.Plan, error) {
	prog, err := c.build(ranks, c.size, c.nTB)
	if err != nil {
		return nil, err
	}
	return prog.Lower()
}

// runPlan binds a plan on a fresh machine and runs it once, returning its
// virtual duration and output buffers. fill materializes the buffers and
// fills the inputs for a result check.
func runPlan(tr *tracer, env *topology.Env, pl *plan.Plan, size int64, fill bool) (sim.Duration, []*mem.Buffer, error) {
	m := machine.New(env)
	if !fill {
		m.MaterializeLimit = 0
	}
	in, out := allocBufs(m, size, size)
	if fill {
		collective.FillInputs(in, pattern)
	}
	id := tr.begin("executor.new")
	inst, err := executor.New(core.NewCommunicator(m), pl, in, out)
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	id = tr.begin("executor.run")
	start := m.Engine.Now()
	inst.Launch()
	err = m.Run()
	tr.end(id)
	return m.Engine.Now() - start, out, err
}

// setupA100 builds coll-a100: AllReduce and AllGather on A100-40G 2n16g
// for every library (Fig 7 and Fig 8 grids), plus DSL-executed AllReduce
// plans at 1n8g. Without a switch, mem does little here; the time goes to
// the event engine, goroutine hand-offs in the two-sided baselines and the
// thread blocks, and NIC reservations in the fabric.
func setupA100(uint64) (*bench, error) {
	env2 := topology.A100_40G(2)
	env1 := topology.A100_40G(1)
	ar, err := loadGolden("fig7", "— 2n16g")
	if err != nil {
		return nil, err
	}
	ag, err := loadGolden("fig8", "— 2n16g")
	if err != nil {
		return nil, err
	}
	cells, err := collCells("fig7-2n16g", env2, arFns(), ar)
	if err != nil {
		return nil, err
	}
	agCells, err := collCells("fig8-2n16g", env2, agFns(), ag)
	if err != nil {
		return nil, err
	}
	cells = append(cells, agCells...)

	rec, err := readRecord("dslvsprim")
	if err != nil {
		return nil, err
	}
	dslWant := map[string]int64{}
	for _, m := range rec.Metrics {
		dslWant[m.Name] = int64(m.Value)
	}
	for _, c := range dslCases {
		pl, err := c.lower(env1.TotalGPUs())
		if err != nil {
			return nil, err
		}
		want, hasWant := dslWant[c.golden]
		if c.golden != "" && !hasWant {
			return nil, fmt.Errorf("golden dslvsprim has no metric %q", c.golden)
		}
		name := fmt.Sprintf("dsl/%s/%s", c.kind, benchkit.HumanSize(c.size))
		cells = append(cells, cell{name: name, run: func(tr *tracer) (string, error) {
			d, _, err := runPlan(tr, env1, pl, c.size, false)
			if err != nil {
				return "", err
			}
			if d <= 0 || (hasWant && d != want) {
				return "", fmt.Errorf("%s: got %d ns, golden %d ns", name, d, want)
			}
			return fmt.Sprintf("%s %d", name, d), nil
		}})
	}
	return &bench{
		cells:  cells,
		stride: len(cells),
		reset:  func() {},
		sample: func() error {
			if err := sampleColl(env2, false, []int64{64 << 10, 1 << 20}); err != nil {
				return err
			}
			if err := sampleColl(env2, true, []int64{64 << 10, 1 << 20}); err != nil {
				return err
			}
			return sampleDSL(env1)
		},
		probe: func() (probeStats, error) {
			ps, err := runProbe(env2, false, []int64{64 << 10, 16 << 20})
			if err != nil {
				return ps, err
			}
			pg, err := runProbe(env2, true, []int64{64 << 10, 16 << 20})
			ps.add(pg)
			return ps, err
		},
	}, nil
}

// Serving-fleet geometry, taken from the committed serving scenarios
// (internal/scenario). Each cell is one serve-planetary regional cell:
// three Llama3-70B TP=8 replicas on A100-80G behind JSQ, MaxBatch 32,
// 512-token chunks, streaming metrics, the serving SLO with the relaxed
// batch tier, 70% interactive traffic, a diurnal load peaking at 24 req/s
// with a 0.25 trough, prompts LogNormal(384, 0.6, cap 1024) and outputs
// LogNormal(48, 0.5, cap 128). Two values differ from serve-planetary:
//
//   - KV is serve-overload's 256 MiB paged pool per GPU with auto
//     recompute-or-swap preemption, in place of planetary's 4 GiB, so
//     the diurnal peak preempts and the pager is exercised.
//   - The day is serve-autoscale's compressed 600 s period, in place of
//     planetary's 2 h, so one cell serves one whole day: 9,000 requests,
//     the mean rate of (1+0.25)/2 x 24 req/s over 600 s.
//
// A pass is serveStride cells, cycling through serveCells seeded traces,
// and starts with a cold MSCCL++ ARTimer that its cells share, as a
// serving scenario's cells share one. The timer misses once per distinct
// AllReduce size: up to 512 prefill tokens plus 32 decodes an iteration,
// and the whole resident context when auto preemption prices a
// recompute, about 1,100 sizes in all. They cost about 14 s of host time,
// in the first 30 or so cells of a pass. A pass of 240 cells takes a
// little over the 30 s run on a 2-vCPU host, so an end-to-end run is one
// pass, and its ops_per_s does not depend on where in the warm part a
// time budget happens to cut it.
const (
	serveCells       = 48  // distinct seeded traces
	serveStride      = 240 // cells a pass
	serveRequests    = 9_000
	servePeakRate    = 24.0             // serve-planetary: cluster req/s per cell at the peak
	serveTroughFrac  = 0.25             // serve-planetary
	servePeriod      = 600 * sim.Second // serve-autoscale's compressed day
	serveInteractive = 0.7              // serve-planetary
)

var (
	// The serving scenarios' SLOs: serveSLO and batchSLO in internal/scenario.
	serveSLO   = serve.SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 100 * sim.Millisecond}
	serveTiers = map[int]serve.SLO{1: {MaxTTFT: 20 * sim.Second, MaxTPOT: 400 * sim.Millisecond}}
)

// serveTrace generates cell i's trace for a run seed.
func serveTrace(seed uint64, i int) serve.Workload {
	base := seed<<20 + uint64(2*i)
	wl := serve.Diurnal(base, serveRequests, servePeakRate, serveTroughFrac, servePeriod,
		serve.LogNormalLen(384, 0.6, 1024), serve.LogNormalLen(48, 0.5, 128))
	return serve.WithPriorities(wl, base+1, serveInteractive)
}

// setupServe builds serve-fleet: one seeded diurnal trace per cell, each
// served by RunRouted with streaming metrics and two priority tiers.
func setupServe(seed uint64) (*bench, error) {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	clock := newARClock(envFn)
	replica := serve.Config{
		Env:             envFn(),
		Model:           inference.Llama3x70B(8),
		AR:              clock.time,
		MaxBatch:        32,
		KVCapacityBytes: 256 << 20,
		ChunkTokens:     512,
		KVPolicy:        serve.KVPaged,
		Preempt:         serve.PreemptAuto,
		Metrics:         serve.MetricsStream,
		SLO:             serveSLO,
		TierSLOs:        serveTiers,
	}
	b := &bench{stride: serveStride, reset: clock.reset, sample: func() error { return nil }}
	t0 := time.Now()
	traces := make([]serve.Workload, serveCells)
	for i := range traces {
		traces[i] = serveTrace(seed, i)
	}
	b.traceGen = time.Since(t0)
	for i, wl := range traces {
		name := fmt.Sprintf("serve/cell-%d", i)
		b.cells = append(b.cells, cell{name: name, run: func(tr *tracer) (string, error) {
			clock.tr = tr
			id := tr.begin("serve")
			res, err := serve.RunRouted(serve.RouterConfig{Replicas: 3, Policy: serve.NewJSQ(), Replica: replica}, wl)
			tr.end(id)
			if err != nil {
				return "", err
			}
			m := res.Merged
			if m.Stream == nil {
				return "", fmt.Errorf("%s: no streamed metrics", name)
			}
			var completed int64
			for _, t := range m.Stream.Tiers {
				completed += t.E2E.Count()
			}
			if submitted := int64(len(wl.Requests)); completed+int64(m.Rejected) != submitted {
				return "", fmt.Errorf("%s: %d completed + %d rejected != %d submitted", name, completed, m.Rejected, submitted)
			}
			s := m.SummarizeTiered(serveSLO, serveTiers)
			if !(s.SLOAttainment >= 0 && s.SLOAttainment <= 1) {
				return "", fmt.Errorf("%s: SLO attainment %v outside [0,1]", name, s.SLOAttainment)
			}
			b.count.serveIters += int64(m.Iterations)
			b.count.preemptions += int64(m.Preemptions)
			b.count.swaps += int64(m.Swaps)
			b.count.rejected += int64(m.Rejected)
			return fmt.Sprintf("%s %d %d %d %d %d %d %x", name, m.Makespan, m.Iterations,
				m.Preemptions, m.Swaps, m.Rejected, completed, math.Float64bits(s.SLOAttainment)), nil
		}})
	}
	b.probe = func() (probeStats, error) { return runProbe(envFn(), false, []int64{512 << 10, 8 << 20}) }
	return b, nil
}

// cand is one library's candidate algorithm for the probe and the
// materialized sample.
type cand struct {
	lib  string
	prep func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error)
}

// candidates returns one candidate per library for an AllReduce (or, with
// gather, an AllGather) of size bytes: NCCL-sim's ring, MSCCL-sim's
// all-pairs or hierarchical algorithm, and the MSCCL++ tuned selection.
func candidates(env *topology.Env, gather bool, size int64) []cand {
	proto := twosided.ProtoSimple
	if size <= 4<<20 {
		proto = twosided.ProtoLL
	}
	if gather {
		return []cand{
			{"NCCL", func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return ncclsim.New(c, 0).PrepareAllGatherRing(in, out, proto)
			}},
			{"MSCCL", func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				// MSCCL-sim's all-pairs AllGather is single-node; across
				// nodes its tuned choice is the ring.
				if env.Nodes > 1 {
					return ncclsim.New(c, 0).PrepareAllGatherRing(in, out, proto)
				}
				return mscclsim.New(c, 0).PrepareAllGatherAllPairs(in, out, proto)
			}},
			{"MSCCL++", func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return c.SelectAllGather(size).Prepare(c, in, out)
			}},
		}
	}
	msccl := func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		if env.Nodes > 1 {
			return mscclsim.New(c, 0).PrepareAllReduceHier(in, out, proto)
		}
		return mscclsim.New(c, 0).PrepareAllReduceAllPairs2P(in, out, proto)
	}
	return []cand{
		{"NCCL", func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, proto)
		}},
		{"MSCCL", msccl},
		{"MSCCL++", func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return c.SelectAllReduce(size).Prepare(c, in, out)
		}},
	}
}

// bufSizes returns the per-rank input and output sizes of a collective of
// size bytes (the gathered size for an AllGather).
func bufSizes(env *topology.Env, gather bool, size int64) (in, out int64) {
	if gather {
		return size / int64(env.TotalGPUs()), size
	}
	return size, size
}

func allocBufs(m *machine.Machine, inSize, outSize int64) (in, out []*mem.Buffer) {
	for r := range m.GPUs {
		in = append(in, m.Alloc(r, "in", inSize))
		out = append(out, m.Alloc(r, "out", outSize))
	}
	return in, out
}

func pattern(r int, i int64) float32 { return float32(r+1) + float32(i%13)*0.25 }

// sampleColl runs every library's candidate at each size on materialized
// buffers and checks the collective's result element by element.
func sampleColl(env *topology.Env, gather bool, sizes []int64) error {
	for _, size := range sizes {
		for _, cd := range candidates(env, gather, size) {
			m := machine.New(env)
			inSize, outSize := bufSizes(env, gather, size)
			in, out := allocBufs(m, inSize, outSize)
			collective.FillInputs(in, pattern)
			c := collective.New(m)
			ex, err := cd.prep(c, in, out)
			if err != nil {
				return fmt.Errorf("sample %s at %d bytes: %w", cd.lib, size, err)
			}
			if _, err := c.Run(ex); err != nil {
				return fmt.Errorf("sample %s at %d bytes: %w", cd.lib, size, err)
			}
			if gather {
				err = collective.CheckAllGather(out, inSize, pattern, 1e-3)
			} else {
				err = collective.CheckAllReduce(out, pattern, 1e-3)
			}
			if err != nil {
				return fmt.Errorf("sample %s (%s) at %d bytes: %w", cd.lib, ex.Name, size, err)
			}
		}
	}
	return nil
}

// sampleDSL runs the DSL plans up to 1 MB on materialized buffers.
func sampleDSL(env *topology.Env) error {
	for _, c := range dslCases {
		if c.size > 1<<20 {
			continue
		}
		pl, err := c.lower(env.TotalGPUs())
		if err != nil {
			return err
		}
		_, out, err := runPlan(nil, env, pl, c.size, true)
		if err != nil {
			return fmt.Errorf("sample dsl %s at %d bytes: %w", c.kind, c.size, err)
		}
		if err := collective.CheckAllReduce(out, pattern, 1e-3); err != nil {
			return fmt.Errorf("sample dsl %s at %d bytes: %w", c.kind, c.size, err)
		}
	}
	return nil
}

// probeStats is the layer probe's split of one candidate run into
// machine set-up, Prepare and Comm.Run host time, with the engine's event
// count and the fabric's reservation count.
type probeStats struct {
	setup, prepare, run  time.Duration
	events, reservations uint64
}

func (p *probeStats) add(o probeStats) {
	p.setup += o.setup
	p.prepare += o.prepare
	p.run += o.run
	p.events += o.events
	p.reservations += o.reservations
}

// runProbe runs one candidate per library and size through machine.New,
// Prepare and Comm.Run, timing each step.
func runProbe(env *topology.Env, gather bool, sizes []int64) (probeStats, error) {
	var ps probeStats
	for _, size := range sizes {
		for _, cd := range candidates(env, gather, size) {
			t0 := time.Now()
			m := machine.New(env)
			m.MaterializeLimit = 0
			c := collective.New(m)
			inSize, outSize := bufSizes(env, gather, size)
			in, out := allocBufs(m, inSize, outSize)
			t1 := time.Now()
			ex, err := cd.prep(c, in, out)
			t2 := time.Now()
			if err != nil {
				return ps, fmt.Errorf("probe %s at %d bytes: %w", cd.lib, size, err)
			}
			if _, err := c.Run(ex); err != nil {
				return ps, fmt.Errorf("probe %s at %d bytes: %w", cd.lib, size, err)
			}
			t3 := time.Now()
			ps.setup += t1.Sub(t0)
			ps.prepare += t2.Sub(t1)
			ps.run += t3.Sub(t2)
			ps.events += m.Engine.EventsRun()
			for _, g := range m.Counters() {
				for _, s := range g.Stats {
					ps.reservations += s.Reservations
				}
			}
		}
	}
	return ps, nil
}
