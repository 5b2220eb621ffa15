package collective

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce1PA is the one-phase all-pairs AllReduce (paper §6.1): every GPU
// concurrently broadcasts all its local data to all peers with the LL
// protocol, and every GPU reduces all N contributions locally. Redundant
// traffic and reduction, but a single round of relaxed synchronization —
// best for very small single-node messages.
type AllReduce1PA struct {
	// TB overrides the thread-block count (0 = auto).
	TB int
}

// Name implements Algorithm.
func (a *AllReduce1PA) Name() string { return "mscclpp-1PA-LL" }

// Prepare implements Algorithm.
func (a *AllReduce1PA) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	// Per-rank packet scratch: one slot of `size` bytes per source rank.
	scratch := c.alloc("1pa.scratch", size*int64(len(ranks)))
	m := newMesh(c, ranks, in, scratch)
	nTB := a.TB
	if nTB == 0 {
		nTB = min(int(size/(8<<10))+1, 4)
	}
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		// Broadcast local data to every peer's scratch slot r.
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).PutPackets(k, int64(r)*size, 0, size, k.Block, k.NumBlocks, k.Inv)
		}
		// out = own input.
		localCopy(k, out[r], 0, in[r], 0, size)
		// Consume peers' packets and reduce.
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).AwaitPackets(k, k.Inv, uint64(size))
			localReduce(k, out[r], 0, scratch[r], int64(p)*size, size)
		}
	}), nil
}

// AllReduce1PAHB is the one-phase all-pairs AllReduce with HB-protocol
// signal/wait synchronization instead of LL packets. This is the structure
// of vLLM's and TensorRT-LLM's hand-written custom AllReduce kernels
// (registered peer buffers, one bulk exchange, flag barrier), used in the
// paper's §7.3 custom-kernel comparison: it pays a fence + semaphore
// round-trip that the LL variant avoids.
type AllReduce1PAHB struct{}

// Name implements Algorithm.
func (a *AllReduce1PAHB) Name() string { return "custom-1PA-HB (vLLM-like)" }

// Prepare implements Algorithm.
func (a *AllReduce1PAHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	scratch := c.alloc("1pahb.scratch", size*int64(len(ranks)))
	m := newMesh(c, ranks, in, scratch)
	nTB := min(int(size/(8<<10))+1, 4)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).Put(k, int64(r)*size, 0, size, k.Block, k.NumBlocks)
		}
		m.gridSync(k, ranks)
		localCopy(k, out[r], 0, in[r], 0, size)
		for _, p := range PeersOf(ranks, r) {
			localReduce(k, out[r], 0, scratch[r], int64(p)*size, size)
		}
	}), nil
}

// AllReduce2PALL is the two-phase all-pairs AllReduce with the LL protocol
// (paper §6.2): phase one ReduceScatters (each rank collects and reduces its
// 1/N slice), phase two AllGathers the reduced slices, both in the all-pairs
// pattern with packet flags instead of semaphores.
type AllReduce2PALL struct{}

// Name implements Algorithm.
func (a *AllReduce2PALL) Name() string { return "mscclpp-2PA-LL" }

// Prepare implements Algorithm.
func (a *AllReduce2PALL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	slice := size / int64(len(ranks))
	// Phase-1 scratch: slot per source rank holding my slice's partial.
	// Phase-2 scratch: slot per source rank holding its reduced slice.
	scr1 := c.alloc("2pall.scr1", size)
	scr2 := c.alloc("2pall.scr2", size)
	m1 := newMesh(c, ranks, in, scr1)
	m2 := newMesh(c, ranks, out, scr2)
	nTB := min(int(size/(64<<10))+1, 8)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		flag1, flag2 := 2*k.Inv, 2*k.Inv+1
		mySlice := int64(r) * slice
		// Phase 1: scatter slice p of my input to p's scratch.
		for _, p := range PeersOf(ranks, r) {
			m1.at(r, p).PutPacketsBuf(k, scr1[p], int64(r)*slice,
				in[r], int64(p)*slice, slice, k.Block, k.NumBlocks, flag1)
		}
		// Seed my slice with my own contribution.
		localCopy(k, out[r], mySlice, in[r], mySlice, slice)
		for _, p := range PeersOf(ranks, r) {
			m1.at(r, p).AwaitPackets(k, flag1, uint64(slice))
			localReduce(k, out[r], mySlice, scr1[r], int64(p)*slice, slice)
		}
		// Phase 2: broadcast my reduced slice to all peers' scratch.
		for _, p := range PeersOf(ranks, r) {
			m2.at(r, p).PutPacketsBuf(k, scr2[p], int64(r)*slice,
				out[r], mySlice, slice, k.Block, k.NumBlocks, flag2)
		}
		for _, p := range PeersOf(ranks, r) {
			m2.at(r, p).AwaitPackets(k, flag2, uint64(slice))
			localCopy(k, out[r], int64(p)*slice, scr2[r], int64(p)*slice, slice)
		}
	}), nil
}

// AllReduce2PAHB is the two-phase all-pairs AllReduce with the HB protocol:
// phase one has each rank's thread groups read-reduce its slice from all
// peers' inputs concurrently (no per-step synchronization — the MSCCL++
// optimization existing libraries cannot express); phase two pushes the
// reduced slice into every peer's output with put+signal.
type AllReduce2PAHB struct {
	// TB overrides the thread-block count (0 = auto).
	TB int
}

// Name implements Algorithm.
func (a *AllReduce2PAHB) Name() string { return "mscclpp-2PA-HB" }

// Prepare implements Algorithm.
func (a *AllReduce2PAHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	slice := size / int64(len(ranks))
	m := newMesh(c, ranks, in, in)
	nTB := a.TB
	if nTB == 0 {
		nTB = min(max(int(size/(512<<10)), 4), 24)
	}
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		mySlice := int64(r) * slice
		// Phase 1: pull-reduce my slice from all peers (inputs are
		// immutable during the collective, so no sync is needed).
		localCopy(k, out[r], mySlice, in[r], mySlice, slice)
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).ReduceBuf(k, out[r], mySlice, in[p], mySlice,
				slice, k.Block, k.NumBlocks)
		}
		k.GridBarrier()
		// Phase 2: push my reduced slice into every peer's output.
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).PutBuf(k, out[p], mySlice, out[r], mySlice,
				slice, k.Block, k.NumBlocks)
		}
		m.gridSync(k, ranks)
	}), nil
}
