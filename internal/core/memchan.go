package core

import (
	"fmt"
	"strconv"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
)

// Protocol selects the MemoryChannel data-transfer protocol (paper §4.2).
type Protocol int

const (
	// ProtoHB is the high-bandwidth protocol: bulk 16-byte vectorized copies
	// synchronized once per chunk with signal/wait semaphores.
	ProtoHB Protocol = iota
	// ProtoLL is the low-latency protocol: data interleaved with flag words
	// so the receiver can consume it without a semaphore round-trip, at the
	// cost of doubled wire traffic.
	ProtoLL
)

// String returns the protocol's short name ("LL" or "HB").
func (p Protocol) String() string {
	if p == ProtoLL {
		return "LL"
	}
	return "HB"
}

// llState tracks LL-protocol packet arrival for one channel direction:
// cumulative bytes whose flags have become visible, per flag value. Most
// algorithm steps use a single live flag, so the first flag is cached
// inline; the rare additional flags live in a small linear-scanned slice
// (flag populations are tiny — one per algorithm step).
type llState struct {
	e     *sim.Engine
	name  string
	flag0 uint64
	sem0  *sim.Semaphore
	flags []uint64
	sems  []*sim.Semaphore
}

func (s *llState) sem(flag uint64) *sim.Semaphore {
	if s.sem0 != nil && s.flag0 == flag {
		return s.sem0
	}
	for i, f := range s.flags {
		if f == flag {
			return s.sems[i]
		}
	}
	sem := sim.NewSemaphore(s.e, s.name+"/flag"+strconv.FormatUint(flag, 10))
	if s.sem0 == nil {
		s.flag0, s.sem0 = flag, sem
	} else {
		s.flags = append(s.flags, flag)
		s.sems = append(s.sems, sem)
	}
	return sem
}

// MemoryChannel is one endpoint of a memory-mapped I/O channel: the local
// GPU's threads directly store into (and load from) the peer GPU's memory.
type MemoryChannel struct {
	comm      *Communicator
	local     int
	remote    int
	localBuf  *mem.Buffer
	remoteBuf *mem.Buffer

	sendSem  *sim.Semaphore // lives on the remote GPU; our Signal bumps it
	recvSem  *sim.Semaphore // lives locally; peer's Signal bumps it
	expected uint64

	sendLL *llState // put_packets progress we produce
	recvLL *llState // put_packets progress we consume

	lastVisible sim.Time // completion time of our latest outbound store
	lastSignal  sim.Time
}

// NewMemoryChannelPair connects ranks a and b with memory-mapped channels,
// registering abuf/bbuf as the respective local buffers. Puts from a land in
// bbuf; puts from b land in abuf.
func (c *Communicator) NewMemoryChannelPair(a, b int, abuf, bbuf *mem.Buffer) (*MemoryChannel, *MemoryChannel) {
	return c.NewMemoryChannelPairEx(a, b, abuf, bbuf, bbuf, abuf)
}

// NewMemoryChannelPairEx connects ranks a and b with independent per-
// direction buffer bindings: a's puts stream aSrc (on a) into aDst (on b),
// b's puts stream bSrc (on b) into bDst (on a). This matches MSCCL++'s
// registration model, where each channel handle binds a local source and a
// remote destination (e.g. the peer's packet scratch buffer).
func (c *Communicator) NewMemoryChannelPairEx(a, b int, aSrc, aDst, bSrc, bDst *mem.Buffer) (*MemoryChannel, *MemoryChannel) {
	validateEndpoint(c.M, a, b, aSrc, bSrc)
	validateEndpoint(c.M, a, b, bDst, aDst)
	e := c.M.Engine
	id, as, bs := strconv.Itoa(c.id()), strconv.Itoa(a), strconv.Itoa(b)
	semAB := sim.NewSemaphore(e, "mc"+id+"/"+as+"->"+bs)
	semBA := sim.NewSemaphore(e, "mc"+id+"/"+bs+"->"+as)
	llAB := &llState{e: e, name: "mc" + id + "/ll/" + as + "->" + bs}
	llBA := &llState{e: e, name: "mc" + id + "/ll/" + bs + "->" + as}
	ca := &MemoryChannel{comm: c, local: a, remote: b, localBuf: aSrc, remoteBuf: aDst,
		sendSem: semAB, recvSem: semBA, sendLL: llAB, recvLL: llBA}
	cb := &MemoryChannel{comm: c, local: b, remote: a, localBuf: bSrc, remoteBuf: bDst,
		sendSem: semBA, recvSem: semAB, sendLL: llBA, recvLL: llAB}
	return ca, cb
}

// LocalRank returns the owning rank.
func (ch *MemoryChannel) LocalRank() int { return ch.local }

// RemoteRank returns the peer rank.
func (ch *MemoryChannel) RemoteRank() int { return ch.remote }

// LocalBuffer returns the bound local buffer.
func (ch *MemoryChannel) LocalBuffer() *mem.Buffer { return ch.localBuf }

// RemoteBuffer returns the bound remote buffer.
func (ch *MemoryChannel) RemoteBuffer() *mem.Buffer { return ch.remoteBuf }

// checkKernel panics when a primitive is invoked from the wrong GPU: channel
// endpoints are per-rank objects, like their CUDA counterparts.
func (ch *MemoryChannel) checkKernel(k *machine.Kernel) {
	if k.GPU.Rank != ch.local {
		panic(fmt.Sprintf("core: MemoryChannel of rank %d used from rank %d",
			ch.local, k.GPU.Rank))
	}
}

// put streams n bytes from src[srcOff] into dst[dstOff] on the peer using
// this block's threads, returning the visibility time.
func (ch *MemoryChannel) put(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff int64, size int64, tb, nTB int, trafficFactor float64) {
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	wireBytes := int64(float64(n) * trafficFactor)
	complete := k.Fabric().P2P(k.Now(), ch.local, ch.remote, wireBytes, model.ThreadCopyBWPerTB)
	ch.lastVisible = max(ch.lastVisible, complete)
	awaitAndApply(k, complete-k.Machine().Env.IntraLat, nil) // threads busy issuing stores
	k.Machine().Engine.At(complete, func() {
		src.CopyTo(dst, dstOff+off, srcOff+off, n)
	})
}

// Put implements the HB-protocol one-sided write into the peer's bound
// buffer (paper Figure 2). Thread block tb of nTB moves its shard.
func (ch *MemoryChannel) Put(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.put(k, ch.remoteBuf, dstOff, ch.localBuf, srcOff, size, tb, nTB, 1.0)
}

// PutBuf is Put with explicit buffers (used by the DSL executor, which
// registers multiple buffers per rank).
func (ch *MemoryChannel) PutBuf(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	if dst.Rank != ch.remote || src.Rank != ch.local {
		panic("core: PutBuf buffer ranks do not match channel endpoints")
	}
	ch.put(k, dst, dstOff, src, srcOff, size, tb, nTB, 1.0)
}

// PutPackets implements the LL-protocol write: every data word travels with
// a flag word (doubling traffic), letting the receiver consume data at
// packet granularity without semaphores. flag must be distinct per
// algorithm step (paper §4.2).
func (ch *MemoryChannel) PutPackets(k *machine.Kernel, dstOff, srcOff, size int64,
	tb, nTB int, flag uint64) {
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	wireBytes := int64(float64(n) * model.LLTrafficFactor)
	complete := k.Fabric().P2P(k.Now(), ch.local, ch.remote, wireBytes, model.ThreadCopyBWPerTB)
	dst, src := ch.remoteBuf, ch.localBuf
	sem := ch.sendLL.sem(flag)
	awaitAndApply(k, complete-k.Machine().Env.IntraLat, nil)
	k.Machine().Engine.At(complete, func() {
		src.CopyTo(dst, dstOff+off, srcOff+off, n)
		sem.Add(uint64(n))
	})
}

// PutPacketsBuf is PutPackets with explicit buffers.
func (ch *MemoryChannel) PutPacketsBuf(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff, size int64, tb, nTB int, flag uint64) {
	if dst.Rank != ch.remote || src.Rank != ch.local {
		panic("core: PutPacketsBuf buffer ranks do not match channel endpoints")
	}
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	wireBytes := int64(float64(n) * model.LLTrafficFactor)
	complete := k.Fabric().P2P(k.Now(), ch.local, ch.remote, wireBytes, model.ThreadCopyBWPerTB)
	sem := ch.sendLL.sem(flag)
	awaitAndApply(k, complete-k.Machine().Env.IntraLat, nil)
	k.Machine().Engine.At(complete, func() {
		src.CopyTo(dst, dstOff+off, srcOff+off, n)
		sem.Add(uint64(n))
	})
}

// AwaitPackets blocks until at least target cumulative bytes tagged with
// flag have arrived on this channel direction (the receiver-side flag poll
// of the LL protocol).
func (ch *MemoryChannel) AwaitPackets(k *machine.Kernel, flag uint64, target uint64) {
	ch.checkKernel(k)
	sem := ch.recvLL.sem(flag)
	sem.WaitGE(k.P, target)
	k.Elapse(k.Model().LLCheckCost)
}

// PacketsArrived returns the cumulative LL bytes received for flag
// (non-blocking check, used by polling loops).
func (ch *MemoryChannel) PacketsArrived(flag uint64) uint64 {
	return ch.recvLL.sem(flag).Value()
}

// Signal asynchronously increments the peer's semaphore, ordered after all
// previous puts on this channel (a __threadfence_system precedes the store).
func (ch *MemoryChannel) Signal(k *machine.Kernel) {
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.MemFenceCost + model.SemSignalCost)
	lat := k.Fabric().SignalLatency(ch.local, ch.remote)
	arrive := max(k.Now()+lat, ch.lastVisible+model.SemSignalCost)
	arrive = max(arrive, ch.lastSignal+1)
	ch.lastSignal = arrive
	ch.sendSem.AddAt(arrive, 1)
}

// Wait blocks until the local semaphore reaches the next expected value
// (busy-wait while-loop in the paper).
func (ch *MemoryChannel) Wait(k *machine.Kernel) {
	ch.checkKernel(k)
	ch.expected++
	ch.recvSem.WaitGE(k.P, ch.expected)
	k.Elapse(k.Model().SemWaitWake)
}

// Flush is a no-op for MemoryChannel: once Put returns, the source buffer
// may be reused even though the write may still be in flight (paper §4.2).
func (ch *MemoryChannel) Flush(k *machine.Kernel) {
	ch.checkKernel(k)
	k.Elapse(k.Model().InstrOverhead)
}

// PutWithSignal fuses Put and Signal, paying the call overhead once.
func (ch *MemoryChannel) PutWithSignal(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	model := k.Model()
	off, n := mem.Shard(size, tb, nTB)
	if n > 0 {
		complete := k.Fabric().P2P(k.Now(), ch.local, ch.remote, n, model.ThreadCopyBWPerTB)
		ch.lastVisible = max(ch.lastVisible, complete)
		dst, src := ch.remoteBuf, ch.localBuf
		k.Machine().Engine.At(complete, func() {
			src.CopyTo(dst, dstOff+off, srcOff+off, n)
		})
		awaitAndApply(k, complete-k.Machine().Env.IntraLat, nil)
	}
	k.Elapse(model.MemFenceCost + model.SemSignalCost)
	lat := k.Fabric().SignalLatency(ch.local, ch.remote)
	arrive := max(k.Now()+lat, ch.lastVisible+model.SemSignalCost)
	arrive = max(arrive, ch.lastSignal+1)
	ch.lastSignal = arrive
	ch.sendSem.AddAt(arrive, 1)
}

// Reduce reads size bytes of the peer's bound buffer at srcOff and
// accumulates them element-wise into the local bound buffer at dstOff
// (remote load + add + local store, one streaming pass). Synchronous: the
// block has the reduced values when Reduce returns.
func (ch *MemoryChannel) Reduce(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	// Data flows peer -> local over the link at the reduce streaming rate.
	complete := k.Fabric().P2P(k.Now(), ch.remote, ch.local, n, model.ReduceBWPerTB)
	dst, src := ch.localBuf, ch.remoteBuf
	awaitAndApply(k, complete, func() {
		dst.AccumulateFrom(src, dstOff+off, srcOff+off, n)
	})
}

// ReduceBuf is Reduce with explicit buffers: it reads size bytes of src (on
// the peer) at srcOff and accumulates them into dst (local) at dstOff.
func (ch *MemoryChannel) ReduceBuf(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	if dst.Rank != ch.local || src.Rank != ch.remote {
		panic("core: ReduceBuf buffer ranks do not match channel endpoints")
	}
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	complete := k.Fabric().P2P(k.Now(), ch.remote, ch.local, n, model.ReduceBWPerTB)
	awaitAndApply(k, complete, func() {
		dst.AccumulateFrom(src, dstOff+off, srcOff+off, n)
	})
}

// ReducePut is the fused reduce_put primitive produced by DSL operation
// fusion (paper §5.3): it reduces the local bound buffer region with a
// second local buffer region and puts the result to the peer, keeping the
// intermediate in registers (single streaming pass, no memory round-trip).
func (ch *MemoryChannel) ReducePut(k *machine.Kernel, dstOff, srcOff int64,
	data *mem.Buffer, dataOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	model := k.Model()
	k.Elapse(model.InstrOverhead)
	off, n := mem.Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	rate := model.ReduceBWPerTB
	if model.ThreadCopyBWPerTB < rate {
		rate = model.ThreadCopyBWPerTB
	}
	complete := k.Fabric().P2P(k.Now(), ch.local, ch.remote, n, rate)
	ch.lastVisible = max(ch.lastVisible, complete)
	dst, src := ch.remoteBuf, ch.localBuf
	k.Machine().Engine.At(complete, func() {
		src.CopyTo(dst, dstOff+off, srcOff+off, n)
		dst.AccumulateFrom(data, dstOff+off, dataOff+off, n)
	})
	awaitAndApply(k, complete-k.Machine().Env.IntraLat, nil)
}

// ReadReduceBW exposes the effective reduce bandwidth for n blocks (used by
// algorithm planners choosing thread-block counts).
func ReadReduceBW(m *timing.Model, nTB int, linkBW float64) float64 {
	return m.ReduceBW(nTB, linkBW)
}

var _ Channel = (*MemoryChannel)(nil)
