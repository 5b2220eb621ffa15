package machine

import (
	"testing"

	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

func TestNewMachineShape(t *testing.T) {
	m := New(topology.A100_40G(2))
	if len(m.GPUs) != 16 {
		t.Fatalf("got %d GPUs, want 16", len(m.GPUs))
	}
	g := m.GPUs[11]
	if g.Rank != 11 || g.Node != 1 || g.Local != 3 {
		t.Fatalf("gpu11 = %+v", g)
	}
}

func TestAllocMaterialization(t *testing.T) {
	m := New(topology.H100(1))
	small := m.Alloc(0, "small", 1024)
	if !small.Materialized() {
		t.Fatal("small buffer should be materialized")
	}
	big := m.Alloc(0, "big", 1<<30)
	if big.Materialized() {
		t.Fatal("1GB buffer should be virtual")
	}
	m.MaterializeLimit = 1 << 40
	big2 := m.Alloc(0, "big2", 64<<20)
	if !big2.Materialized() {
		t.Fatal("raised limit should materialize")
	}
}

func TestAllocInvalidRankPanics(t *testing.T) {
	m := New(topology.H100(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Alloc(8, "oob", 16)
}

func TestKernelLaunchOverheadAndJoin(t *testing.T) {
	m := New(topology.A100_40G(1))
	var blockStart, kernelEnd sim.Time
	h := m.GPUs[0].Launch("k", 4, func(k *Kernel) {
		if k.Block == 0 {
			blockStart = k.Now()
		}
		k.Elapse(sim.Duration(100 * (k.Block + 1)))
	})
	m.Engine.Spawn("join", func(p *sim.Proc) {
		h.Wait(p)
		kernelEnd = p.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	launch := m.Model.KernelLaunch
	if blockStart != launch {
		t.Fatalf("block started at %d, want launch overhead %d", blockStart, launch)
	}
	if kernelEnd != launch+400 {
		t.Fatalf("kernel joined at %d, want %d", kernelEnd, launch+400)
	}
}

// A RankKernel launches one kernel per rank in rank order, one handle per
// rank, and numbers its invocations from 1; a plain GPU.Launch has Inv 0.
func TestRankKernelInvocations(t *testing.T) {
	m := New(topology.A100_40G(1))
	type start struct {
		rank, block int
		inv         uint64
	}
	var starts []start
	rk := m.NewRankKernel("rk", 2, func(k *Kernel) {
		starts = append(starts, start{k.GPU.Rank, k.Block, k.Inv})
	})
	for inv := uint64(1); inv <= 3; inv++ {
		starts = starts[:0]
		handles := rk.Launch()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if len(handles) != len(m.GPUs) {
			t.Fatalf("%d handles for %d ranks", len(handles), len(m.GPUs))
		}
		for r, h := range handles {
			if h.GPU.Rank != r || h.Name != "rk" {
				t.Fatalf("handle %d = %s on rank %d", r, h.Name, h.GPU.Rank)
			}
		}
		if len(starts) != 2*len(m.GPUs) {
			t.Fatalf("invocation %d ran %d blocks", inv, len(starts))
		}
		for i, s := range starts {
			if want := (start{i / 2, i % 2, inv}); s != want {
				t.Fatalf("block %d of invocation %d = %+v, want %+v", i, inv, s, want)
			}
		}
	}
	m.GPUs[0].Launch("plain", 1, func(k *Kernel) {
		if k.Inv != 0 {
			t.Errorf("GPU.Launch kernel has Inv %d", k.Inv)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGridBarrier(t *testing.T) {
	m := New(topology.A100_40G(1))
	const blocks = 8
	var after [blocks]sim.Time
	m.GPUs[0].Launch("bar", blocks, func(k *Kernel) {
		// Stagger arrival.
		k.Elapse(sim.Duration(10 * k.Block))
		k.GridBarrier()
		after[k.Block] = k.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Everyone leaves the barrier no earlier than the last arrival.
	lastArrival := m.Model.KernelLaunch + 10*(blocks-1)
	for b, tm := range after {
		if tm < lastArrival {
			t.Fatalf("block %d left barrier at %d before last arrival %d", b, tm, lastArrival)
		}
	}
}

func TestGridBarrierReusable(t *testing.T) {
	m := New(topology.A100_40G(1))
	const blocks, rounds = 4, 5
	counts := make([]int, blocks)
	m.GPUs[0].Launch("bar", blocks, func(k *Kernel) {
		for r := 0; r < rounds; r++ {
			k.Elapse(sim.Duration(k.Block + 1))
			k.GridBarrier()
			counts[k.Block]++
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for b, c := range counts {
		if c != rounds {
			t.Fatalf("block %d completed %d rounds, want %d", b, c, rounds)
		}
	}
}

func TestLaunchZeroBlocksPanics(t *testing.T) {
	m := New(topology.A100_40G(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.GPUs[0].Launch("bad", 0, func(k *Kernel) {})
}

func TestFabricP2PTiming(t *testing.T) {
	m := New(topology.H100(1))
	f := m.Fabric
	// Single 1 MB transfer at full link speed.
	size := int64(1 << 20)
	done := f.P2P(0, 0, 1, size, 1e9)
	wire := timing.XferTime(size, m.Env.IntraBW)
	want := wire + m.Env.IntraLat
	if done != want {
		t.Fatalf("P2P completion %d, want %d", done, want)
	}
	// Slow stream (one TB): completion extends, wire occupancy doesn't.
	f.Reset()
	slow := f.P2P(0, 0, 1, size, m.Model.ThreadCopyBWPerTB)
	if slow <= done {
		t.Fatalf("slow stream (%d) should finish after fast stream (%d)", slow, done)
	}
	// A second transfer from another source to another target overlaps.
	f.Reset()
	a := f.P2P(0, 0, 1, size, 1e9)
	b := f.P2P(0, 2, 3, size, 1e9)
	if a != b {
		t.Fatalf("disjoint transfers should complete together: %d vs %d", a, b)
	}
	// Same egress port serializes.
	f.Reset()
	a = f.P2P(0, 0, 1, size, 1e9)
	b = f.P2P(0, 0, 2, size, 1e9)
	if b <= a {
		t.Fatalf("shared egress should serialize: first %d, second %d", a, b)
	}
}

func TestFabricP2PCrossNodePanics(t *testing.T) {
	m := New(topology.A100_40G(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Fabric.P2P(0, 0, 8, 1024, 1e9)
}

func TestFabricRDMA(t *testing.T) {
	m := New(topology.H100(2))
	size := int64(1 << 20)
	done := m.Fabric.RDMA(0, 0, 8, size)
	want := timing.XferTime(size, m.Env.IBBW) + m.Env.IBLat
	if done != want {
		t.Fatalf("RDMA completion %d, want %d", done, want)
	}
	// NIC serialization: two sends from the same GPU queue up.
	second := m.Fabric.RDMA(0, 0, 9, size)
	if second <= done {
		t.Fatalf("same nicTx should serialize: %d then %d", done, second)
	}
}

func TestFabricSwitchOps(t *testing.T) {
	m := New(topology.H100(1))
	if !m.Fabric.HasSwitch() {
		t.Fatal("H100 should support switch-mapped I/O")
	}
	size := int64(1 << 20)
	done := m.Fabric.SwitchReduce(0, 0, size, 1e9)
	want := timing.XferTime(size, m.Env.SwitchBW) + m.Env.SwitchLat
	if done != want {
		t.Fatalf("SwitchReduce completion %d, want %d", done, want)
	}
	a100 := New(topology.A100_40G(1))
	if a100.Fabric.HasSwitch() {
		t.Fatal("A100 must not report switch support")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsupported switch op")
		}
	}()
	a100.Fabric.SwitchReduce(0, 0, size, 1e9)
}

func TestFabricMeshPaths(t *testing.T) {
	m := New(topology.MI300x(1))
	size := int64(1 << 20)
	// On a mesh, transfers to different peers use independent links.
	a := m.Fabric.P2P(0, 0, 1, size, 1e9)
	b := m.Fabric.P2P(0, 0, 2, size, 1e9)
	if a != b {
		t.Fatalf("mesh links to different peers should be independent: %d vs %d", a, b)
	}
	// But per-peer bandwidth is the per-link share.
	wire := timing.XferTime(size, m.Env.PeerBW())
	if a != wire+m.Env.IntraLat {
		t.Fatalf("mesh completion %d, want %d", a, wire+m.Env.IntraLat)
	}
	// Same directed pair serializes.
	c := m.Fabric.P2P(0, 0, 1, size, 1e9)
	if c <= a {
		t.Fatal("same mesh link should serialize")
	}
}

func TestSignalLatency(t *testing.T) {
	m := New(topology.H100(2))
	if got := m.Fabric.SignalLatency(0, 1); got != m.Env.IntraLat {
		t.Fatalf("intra signal latency %d, want %d", got, m.Env.IntraLat)
	}
	if got := m.Fabric.SignalLatency(0, 8); got != m.Env.IBLat {
		t.Fatalf("inter signal latency %d, want %d", got, m.Env.IBLat)
	}
}

func TestLocalComputeCosts(t *testing.T) {
	m := New(topology.A100_40G(1))
	var redT, cpT sim.Time
	m.GPUs[0].Launch("compute", 1, func(k *Kernel) {
		t0 := k.Now()
		k.LocalReduce(1<<20, 4)
		redT = k.Now() - t0
		t1 := k.Now()
		k.LocalCopy(1<<20, 4)
		cpT = k.Now() - t1
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if redT <= 0 || cpT <= 0 {
		t.Fatalf("compute costs must be positive: reduce=%d copy=%d", redT, cpT)
	}
}
