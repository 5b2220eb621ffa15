// Package machine assembles the simulated cluster: a DES engine, the
// interconnect fabric, and GPU devices that can launch kernels whose thread
// blocks execute as simulated processes.
package machine

import (
	"fmt"
	"strconv"

	"mscclpp/internal/fabric"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

// DefaultMaterializeLimit is the buffer size up to which allocations carry
// real data (larger buffers are virtual: timing only). 8 MiB keeps full
// numerical verification for the latency-regime experiments while letting
// 1 GB sweeps run fast.
const DefaultMaterializeLimit = 8 << 20

// Machine is one simulated cluster instance.
type Machine struct {
	Engine *sim.Engine
	Env    *topology.Env
	Model  *timing.Model
	Fabric *fabric.Fabric
	GPUs   []*GPU

	// MaterializeLimit controls whether Alloc returns materialized or
	// virtual buffers. Set to a huge value to force full materialization in
	// correctness tests.
	MaterializeLimit int64
}

// New builds a machine for env with the default cost model.
func New(env *topology.Env) *Machine {
	if err := env.Validate(); err != nil {
		panic(err)
	}
	model := timing.Default(env)
	m := &Machine{
		Engine:           sim.NewEngine(),
		Env:              env,
		Model:            model,
		Fabric:           fabric.New(env, model),
		MaterializeLimit: DefaultMaterializeLimit,
	}
	for r := 0; r < env.TotalGPUs(); r++ {
		m.GPUs = append(m.GPUs, &GPU{
			Rank:  r,
			Node:  r / env.GPUsPerNode,
			Local: r % env.GPUsPerNode,
			m:     m,
		})
	}
	return m
}

// Alloc allocates a buffer on rank, materialized iff size is within the
// materialization limit.
func (m *Machine) Alloc(rank int, name string, size int64) *mem.Buffer {
	if rank < 0 || rank >= len(m.GPUs) {
		panic(fmt.Sprintf("machine: Alloc on invalid rank %d", rank))
	}
	if size <= m.MaterializeLimit {
		return mem.NewBuffer(rank, name, size)
	}
	return mem.NewVirtualBuffer(rank, name, size)
}

// Run drains the event queue, returning any deadlock error.
func (m *Machine) Run() error { return m.Engine.Run() }

// Now returns current virtual time.
func (m *Machine) Now() sim.Time { return m.Engine.Now() }

// Counters snapshots the cluster's resource introspection counters. All of
// a machine's contended resources live in its fabric (GPU thread blocks
// are processes, not occupancy resources), so this is the fabric's
// registration surfaced at the cluster level.
func (m *Machine) Counters() []sim.CounterGroup { return m.Fabric.Counters() }

// GPU is one simulated device.
type GPU struct {
	Rank  int // global rank
	Node  int
	Local int // rank within node
	m     *Machine
}

// Machine returns the owning machine.
func (g *GPU) Machine() *Machine { return g.m }

// KernelHandle tracks a launched kernel for joining.
type KernelHandle struct {
	Name  string
	GPU   *GPU
	wg    *sim.WaitGroup
	start sim.Time
	end   sim.Time
}

// Wait blocks p until all thread blocks of the kernel have returned.
func (h *KernelHandle) Wait(p *sim.Proc) {
	h.wg.Wait(p)
	if p.Now() > h.end {
		h.end = p.Now()
	}
}

// Launch starts a kernel with nblocks thread blocks on the device. Each
// block runs body as a simulated process after the launch overhead elapses.
// Launch may be called from outside any Proc (events are scheduled at the
// engine's current time).
func (g *GPU) Launch(name string, nblocks int, body func(k *Kernel)) *KernelHandle {
	return g.launch(name, nblocks, 0, body)
}

// RankKernel is the launch scaffold of every collective kernel: one kernel
// with the same name, block count and body on every rank of the machine.
// Each Launch is one invocation; the body reads its 1-based number from
// Kernel.Inv, which LL kernels fold into their packet flags so no
// invocation can consume a previous one's packets.
type RankKernel struct {
	m       *Machine
	name    string
	nblocks int
	body    func(k *Kernel)
	inv     uint64
}

// NewRankKernel prepares a per-rank kernel; nothing runs until Launch. The
// body finds its rank in k.GPU.Rank.
func (m *Machine) NewRankKernel(name string, nblocks int, body func(k *Kernel)) *RankKernel {
	return &RankKernel{m: m, name: name, nblocks: nblocks, body: body}
}

// Launch starts the next invocation on every rank, in rank order, and
// returns the per-rank handles.
func (rk *RankKernel) Launch() []*KernelHandle {
	rk.inv++
	handles := make([]*KernelHandle, len(rk.m.GPUs))
	for r, g := range rk.m.GPUs {
		handles[r] = g.launch(rk.name, rk.nblocks, rk.inv, rk.body)
	}
	return handles
}

func (g *GPU) launch(name string, nblocks int, inv uint64, body func(k *Kernel)) *KernelHandle {
	if nblocks < 1 {
		panic(fmt.Sprintf("machine: kernel %s launched with %d blocks", name, nblocks))
	}
	e := g.m.Engine
	h := &KernelHandle{Name: name, GPU: g, wg: sim.NewWaitGroup(e), start: e.Now()}
	h.wg.Add(nblocks)
	grid := &gridState{cond: sim.NewCond(e), size: nblocks}
	// Per-block proc names are assembled by concatenation: this runs once
	// per thread block on every kernel launch, where Sprintf parsing is
	// measurable across a sweep's thousands of launches.
	prefix := name + "/gpu" + strconv.Itoa(g.Rank) + "/tb"
	e.After(g.m.Model.KernelLaunch, func() {
		for b := 0; b < nblocks; b++ {
			blk := b
			e.Spawn(prefix+strconv.Itoa(blk), func(p *sim.Proc) {
				k := &Kernel{P: p, GPU: g, Block: blk, NumBlocks: nblocks, Inv: inv, grid: grid}
				body(k)
				h.wg.Done()
			})
		}
	})
	return h
}

// gridState implements a reusable grid-wide barrier.
type gridState struct {
	cond  *sim.Cond
	size  int
	count int
	gen   int
}

// Kernel is the execution context of one thread block: the paper's in-kernel
// Primitive API calls receive this.
type Kernel struct {
	P         *sim.Proc
	GPU       *GPU
	Block     int
	NumBlocks int
	// Inv is the 1-based invocation number under a RankKernel (0 for a
	// kernel started by GPU.Launch).
	Inv  uint64
	grid *gridState
}

// Machine returns the owning machine.
func (k *Kernel) Machine() *Machine { return k.GPU.m }

// Model returns the cost model.
func (k *Kernel) Model() *timing.Model { return k.GPU.m.Model }

// Fabric returns the interconnect.
func (k *Kernel) Fabric() *fabric.Fabric { return k.GPU.m.Fabric }

// Now returns current virtual time.
func (k *Kernel) Now() sim.Time { return k.P.Now() }

// Elapse charges d nanoseconds of in-kernel compute time.
func (k *Kernel) Elapse(d sim.Duration) { k.P.Sleep(d) }

// TBSync models __syncthreads() within the thread block.
func (k *Kernel) TBSync() { k.P.Sleep(k.Model().TBSyncCost) }

// GridBarrier synchronizes all thread blocks of this kernel (device-wide
// barrier via arrive/wait counters).
func (k *Kernel) GridBarrier() {
	g := k.grid
	gen := g.gen
	g.count++
	if g.count == g.size {
		g.count = 0
		g.gen++
		k.P.Sleep(k.Model().DeviceBarrierCost)
		g.cond.Broadcast()
		return
	}
	k.P.Wait(g.cond, "grid barrier", func() bool { return g.gen != gen })
}

// LocalReduce charges the cost of an in-kernel local reduction of size bytes
// performed cooperatively by nTB thread blocks (caller is one of them; all
// participating blocks should call with the same arguments).
func (k *Kernel) LocalReduce(size int64, nTB int) {
	bw := k.Model().LocalReduceBW(nTB)
	k.P.Sleep(timing.XferTime(size, bw) + k.Model().InstrOverhead)
}

// LocalCopy charges the cost of an in-kernel local memory copy by nTB blocks.
func (k *Kernel) LocalCopy(size int64, nTB int) {
	bw := float64(nTB) * k.Model().LocalCopyBWPerTB
	if hbm := k.Model().Env.HBMBW / 2; bw > hbm {
		bw = hbm
	}
	k.P.Sleep(timing.XferTime(size, bw) + k.Model().InstrOverhead)
}
