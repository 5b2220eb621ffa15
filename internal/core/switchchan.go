package core

import (
	"fmt"
	"strconv"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// SwitchChannel is one endpoint of a switch-mapped I/O channel: the GPU
// issues multimem load-reduce and multicast-store instructions that the
// interconnect switch executes in-network (paper §4.3, NVLink SHARP).
//
// Reduce takes a local destination and a multimem source; the switch fetches
// the source element from every member GPU, reduces on the switch, and
// returns the result. Broadcast takes a local source and a multimem
// destination; the switch stores the value to every member.
type SwitchChannel struct {
	comm  *Communicator
	rank  int
	local *mem.Buffer
	group *mem.Multimem
	ranks []int
}

// NewSwitchChannels builds one SwitchChannel per participating rank over a
// multimem group spanning bufs (bufs[i] lives on ranks[i]).
func (c *Communicator) NewSwitchChannels(ranks []int, bufs []*mem.Buffer) []*SwitchChannel {
	if !c.M.Fabric.HasSwitch() {
		panic("core: switch-mapped I/O unsupported on " + c.M.Env.Name)
	}
	if len(ranks) < 2 || len(ranks) != len(bufs) {
		panic(fmt.Sprintf("core: switch channel over %d ranks / %d buffers", len(ranks), len(bufs)))
	}
	node := c.M.GPUs[ranks[0]].Node
	for i, r := range ranks {
		if bufs[i].Rank != r {
			panic(fmt.Sprintf("core: switch buffer %d on rank %d, want %d", i, bufs[i].Rank, r))
		}
		if c.M.GPUs[r].Node != node {
			panic("core: switch channel members must share a node (single NVSwitch)")
		}
	}
	mm, err := mem.NewMultimem("sc"+strconv.Itoa(c.id()), bufs)
	if err != nil {
		panic(err)
	}
	chans := make([]*SwitchChannel, len(ranks))
	for i, r := range ranks {
		chans[i] = &SwitchChannel{comm: c, rank: r, local: bufs[i], group: mm, ranks: ranks}
	}
	return chans
}

// Rank returns the owning rank.
func (ch *SwitchChannel) Rank() int { return ch.rank }

// Members returns the participating ranks.
func (ch *SwitchChannel) Members() []int { return ch.ranks }

func (ch *SwitchChannel) checkKernel(k *machine.Kernel) {
	if k.GPU.Rank != ch.rank {
		panic(fmt.Sprintf("core: SwitchChannel of rank %d used from rank %d",
			ch.rank, k.GPU.Rank))
	}
}

// Reduce executes multimem.ld_reduce over [srcOff, srcOff+size) of the
// multimem group, writing the switch-aggregated sums into the local buffer
// at dstOff. Thread block tb of nTB handles its shard. Synchronous: the
// block has the reduced values when Reduce returns. The caller must ensure
// all members' data is ready (e.g. via a preceding barrier).
func (ch *SwitchChannel) Reduce(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	complete := k.Fabric().SwitchReduce(k.Now(), ch.rank, n, model.ThreadCopyBWPerTB)
	dst, grp := ch.local, ch.group
	awaitAndApply(k, complete, func() {
		grp.ReduceInto(dst, dstOff+off, srcOff+off, n)
	})
}

// ReduceInto is Reduce with an explicit local destination buffer: dst (any
// buffer on this rank) receives the switch-aggregated sums of the multimem
// group over [srcOff, srcOff+size).
func (ch *SwitchChannel) ReduceInto(k *machine.Kernel, dst *mem.Buffer, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	if dst.Rank != ch.rank {
		panic("core: ReduceInto destination not on channel rank")
	}
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	complete := k.Fabric().SwitchReduce(k.Now(), ch.rank, n, model.ThreadCopyBWPerTB)
	grp := ch.group
	awaitAndApply(k, complete, func() {
		grp.ReduceInto(dst, dstOff+off, srcOff+off, n)
	})
}

// BroadcastFrom is Broadcast with an explicit local source buffer: src (any
// buffer on this rank) is multicast-stored to every member at dstOff.
func (ch *SwitchChannel) BroadcastFrom(k *machine.Kernel, src *mem.Buffer, srcOff, dstOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	if src.Rank != ch.rank {
		panic("core: BroadcastFrom source not on channel rank")
	}
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	complete := k.Fabric().SwitchBroadcast(k.Now(), ch.rank, n, model.ThreadCopyBWPerTB)
	grp := ch.group
	k.Machine().Engine.At(complete, func() {
		grp.BroadcastFrom(src, dstOff+off, srcOff+off, n)
	})
	awaitAndApply(k, complete-k.Machine().Env.SwitchLat, nil)
}

// FusedReduceBroadcast executes the fused ld_reduce + multimem.st loop of a
// switch-based AllReduce: for each element, the switch-aggregated sum over
// in's multimem group at srcOff is multicast-stored to every member of out's
// group at dstOff, in a single streaming pass with no intermediate buffer
// (the paper's "15 lines of Python" NVLS kernel). in and out must be
// SwitchChannels of the same rank over equally-sized groups.
func FusedReduceBroadcast(k *machine.Kernel, in, out *SwitchChannel, dstOff, srcOff, size int64, tb, nTB int) {
	in.checkKernel(k)
	out.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	complete := k.Fabric().SwitchReduceBroadcast(k.Now(), in.rank, n, model.ThreadCopyBWPerTB)
	src, dst := in.group, out.group
	awaitAndApply(k, complete, func() {
		mem.ReduceBroadcast(src, dst, dstOff+off, srcOff+off, n)
	})
}

// Broadcast executes multimem.st: it reads the local buffer at srcOff and
// multicast-stores size bytes to every member's buffer at dstOff.
func (ch *SwitchChannel) Broadcast(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	complete := k.Fabric().SwitchBroadcast(k.Now(), ch.rank, n, model.ThreadCopyBWPerTB)
	src, grp := ch.local, ch.group
	k.Machine().Engine.At(complete, func() {
		grp.BroadcastFrom(src, dstOff+off, srcOff+off, n)
	})
	awaitAndApply(k, complete-k.Machine().Env.SwitchLat, nil)
}
